"""Nucleotide state encoding.

DNA characters are encoded as 4-bit ambiguity masks over the state order
``A, C, G, T`` (bit 0 = A .. bit 3 = T), the same representation RAxML and
most ML codes use internally.  A fully determined base has exactly one bit
set; IUPAC ambiguity codes and gaps set several bits.  The mask of a tip
character directly yields its conditional-likelihood row: a 0/1 indicator
over the four states.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "STATES",
    "NUM_STATES",
    "AMBIGUITY_CODES",
    "GAP_MASK",
    "encode_sequence",
    "decode_mask",
    "is_valid_sequence",
    "mask_matrix",
    "tip_partials",
    "TIP_PARTIAL_ROWS",
]

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

# Build a 256-entry lookup table: byte value of (upper-cased) character to
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
_MASK_TO_BYTE = np.frombuffer("".join(_MASK_TO_CHAR).encode(), dtype=np.uint8)

#: Precomputed (16, 4) matrix of tip conditional-likelihood rows: row ``m``
#: is the 0/1 indicator over states allowed by mask ``m``.  Row 0 (invalid)
#: is all zeros.
TIP_PARTIAL_ROWS = np.zeros((16, NUM_STATES), dtype=np.float64)
for _m in range(1, 16):
    for _i in range(NUM_STATES):
        if _m & (1 << _i):
            TIP_PARTIAL_ROWS[_m, _i] = 1.0
TIP_PARTIAL_ROWS.setflags(write=False)


def encode_sequence(sequence: str) -> np.ndarray:
    """Encode a DNA string into a ``uint8`` array of 4-bit ambiguity masks.

    Raises ``ValueError`` if the sequence contains a character that is not
    an IUPAC nucleotide code or gap symbol.
    """
    if not sequence.isascii():
        bad = sorted({ch for ch in sequence if not ch.isascii()})
        raise ValueError(f"invalid nucleotide characters: {bad!r}")
    raw = np.frombuffer(sequence.encode("ascii"), dtype=np.uint8)
    masks = _CHAR_TO_MASK[raw]
    if (masks == 0).any():
        bad = sorted({sequence[i] for i in np.nonzero(masks == 0)[0]})
        raise ValueError(f"invalid nucleotide characters: {bad!r}")
    return masks


def decode_mask(masks: np.ndarray) -> str:
    """Decode an array of 4-bit masks back to an IUPAC string.

    Fully ambiguous masks decode to ``N`` (the gap/unknown distinction is
    not preserved by the mask representation).
    """
    return _MASK_TO_BYTE[np.asarray(masks, dtype=np.intp)].tobytes().decode()


def is_valid_sequence(sequence: str) -> bool:
    """Return True if every character of *sequence* is a valid DNA code."""
    if not sequence.isascii():
        return False
    raw = np.frombuffer(sequence.encode("ascii"), dtype=np.uint8)
    return bool((_CHAR_TO_MASK[raw] != 0).all())


def mask_matrix(sequences) -> np.ndarray:
    """Encode an iterable of equal-length DNA strings as a 2-D mask matrix.

    Returns an array of shape ``(n_sequences, n_sites)``.
    """
    rows = [encode_sequence(s) for s in sequences]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("sequences have unequal lengths")
    return np.vstack(rows) if rows else np.zeros((0, 0), dtype=np.uint8)


def tip_partials(masks: np.ndarray) -> np.ndarray:
    """Expand an array of masks into tip conditional-likelihood rows.

    Input shape ``(n_sites,)`` produces output shape ``(n_sites, 4)`` where
    each row is the 0/1 indicator over permitted states.
    """
    return TIP_PARTIAL_ROWS[masks]
