"""Amino-acid (protein) sequence support.

The paper's opening line covers "multiple alignments of DNA or AA
sequences"; this module supplies the AA half: the 20-state alphabet
:data:`AA` with IUPAC ambiguity codes, and reversible 20-state
substitution models.  An amino-acid alignment is the one
:class:`~repro.phylo.alignment.Alignment` type carrying ``AA``, so it
shares site-pattern compression, bootstrapping and parsing with DNA.

Because 20 states do not fit the DNA path's 4-bit mask representation,
tips are encoded as indices into a small *code table* (one indicator
row per distinct character) — the likelihood engine and kernels take
any alignment's table, so the entire engine (newview/evaluate/makenewz,
Gamma and CAT rates, scaling) works unchanged.

Shipped models:

* :func:`PoissonAA` — equal exchangeabilities (the 20-state analogue of
  Jukes-Cantor), optionally with empirical frequencies ("Poisson+F").
* :func:`protein_model` — any user-supplied 190-rate matrix, e.g. a
  WAG/JTT/LG parameter file (the published matrices are data files this
  offline reproduction does not embed; loading them is one call).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .dna import Alphabet
from .models import SubstitutionModel

__all__ = [
    "AA",
    "AA_STATES",
    "AA_AMBIGUITY",
    "PoissonAA",
    "protein_model",
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


#: Byte -> code (either case); 255 marks an invalid character.
_ENCODE = np.full(256, 255, dtype=np.uint8)
for _k, _ch in enumerate(_CODE_CHARS):
    _ENCODE[ord(_ch)] = _ENCODE[ord(_ch.lower())] = _k

#: The amino-acid alphabet.
AA = Alphabet(AA_STATES, _ENCODE, "".join(_CODE_CHARS), AA_CODE_TABLE,
              AA_CODE_BITMASKS, "amino-acid")


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
