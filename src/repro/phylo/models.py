"""Time-reversible substitution models (nucleotide and general n-state).

A general time-reversible (GTR-class) model over ``n`` states is defined
by ``n(n-1)/2`` exchangeability rates and ``n`` stationary frequencies.
The instantaneous rate matrix ``Q`` is normalized so that one unit of
branch length equals one expected substitution per site.  Because ``Q``
is reversible it is diagonalizable through a symmetric similarity
transform, which gives numerically stable transition-probability
matrices::

    P(t) = R  diag(exp(lambda * t))  L

with ``R = diag(pi)^-1/2 U`` and ``L = U^T diag(pi)^1/2`` for the
orthonormal eigenvectors ``U`` of the symmetrized matrix.  The same
decomposition yields analytic first and second derivatives of ``P`` with
respect to ``t``, which :mod:`repro.phylo.engine` uses for
Newton-Raphson branch-length optimization (the paper's ``makenewz()``).

The classic four-state DNA models (:func:`JC69`, :func:`K80`,
:func:`HKY85`, :func:`GTR`) are factories over this machinery; the
amino-acid models live in :mod:`repro.phylo.protein`.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .dna import NUM_STATES

__all__ = [
    "SubstitutionModel",
    "PMatrixCache",
    "GTR",
    "HKY85",
    "K80",
    "JC69",
    "RATE_PAIR_ORDER",
]

#: Order of the six nucleotide exchangeability parameters: the upper
#: triangle of the symmetric exchangeability matrix in state order
#: A,C,G,T.  (General n-state models use the same upper-triangle,
#: row-major convention.)
RATE_PAIR_ORDER = (
    ("A", "C"),
    ("A", "G"),
    ("A", "T"),
    ("C", "G"),
    ("C", "T"),
    ("G", "T"),
)


def _upper_triangle_indices(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class SubstitutionModel:
    """A normalized reversible substitution model over ``n`` states.

    Parameters
    ----------
    exchangeabilities:
        ``n(n-1)/2`` relative rates, upper triangle of the symmetric
        exchangeability matrix in row-major order.  For DNA (n = 4)
        this is :data:`RATE_PAIR_ORDER`: AC, AG, AT, CG, CT, GT, with
        GT conventionally fixed at 1.
    frequencies:
        Stationary state frequencies (positive; renormalized to sum to
        one).  Their count determines the state-space size.
    name:
        Display name.
    """

    exchangeabilities: Tuple[float, ...]
    frequencies: Tuple[float, ...]
    name: str = "GTR"

    # Derived, filled by __post_init__ (kept out of comparisons).
    _eigenvalues: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _right: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _left: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _q: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        rates = np.asarray(self.exchangeabilities, dtype=np.float64)
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        if freqs.ndim != 1 or len(freqs) < 2:
            raise ValueError("need at least two state frequencies")
        n = len(freqs)
        expected_rates = n * (n - 1) // 2
        if rates.shape != (expected_rates,):
            raise ValueError(
                f"a {n}-state model needs exactly {expected_rates} "
                f"exchangeability rates, got {rates.shape}"
            )
        if (rates <= 0).any():
            raise ValueError("exchangeability rates must be positive")
        if (freqs <= 0).any():
            raise ValueError("state frequencies must be positive")
        freqs = freqs / freqs.sum()
        object.__setattr__(self, "frequencies", tuple(freqs))
        object.__setattr__(self, "exchangeabilities", tuple(rates))

        # Build the exchangeability matrix S (symmetric, zero diagonal).
        s = np.zeros((n, n))
        for rate, (i, j) in zip(rates, _upper_triangle_indices(n)):
            s[i, j] = s[j, i] = rate
        q = s * freqs[None, :]
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        # Normalize: expected rate  -sum_i pi_i q_ii  == 1.
        scale = -(freqs * np.diag(q)).sum()
        q = q / scale

        # Symmetrize: B = D^1/2 Q D^-1/2 with D = diag(pi).
        sqrt_pi = np.sqrt(freqs)
        b = (sqrt_pi[:, None] * q) / sqrt_pi[None, :]
        b = 0.5 * (b + b.T)  # clean round-off asymmetry
        eigenvalues, u = np.linalg.eigh(b)
        right = u / sqrt_pi[:, None]  # D^-1/2 U
        left = u.T * sqrt_pi[None, :]  # U^T D^1/2

        object.__setattr__(self, "_eigenvalues", eigenvalues)
        object.__setattr__(self, "_right", right)
        object.__setattr__(self, "_left", left)
        object.__setattr__(self, "_q", q)

    # -- core API ----------------------------------------------------------

    @property
    def n_states(self) -> int:
        """Size of the state space (4 for DNA, 20 for amino acids)."""
        return len(self.frequencies)

    @property
    def pi(self) -> np.ndarray:
        """Stationary frequencies as an array."""
        return np.asarray(self.frequencies)

    @property
    def rate_matrix(self) -> np.ndarray:
        """The normalized instantaneous rate matrix ``Q``."""
        return self._q.copy()

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``Q`` (one is ~0; the rest negative)."""
        return self._eigenvalues.copy()

    def transition_matrices(self, branch_length: float, rates) -> np.ndarray:
        """Per-category transition matrices ``P(r_c * t)``.

        Parameters
        ----------
        branch_length:
            Branch length ``t`` in expected substitutions per site.
        rates:
            Iterable of per-category rate multipliers ``r_c``.

        Returns
        -------
        Array of shape ``(n_categories, n, n)``.  Rows of each matrix
        sum to one.  This is the quantity the paper's small
        ``newview()`` loop (4-25 iterations, 36 FLOPs each) computes
        per call.
        """
        if branch_length < 0:
            raise ValueError("branch length must be non-negative")
        rates = np.asarray(rates, dtype=np.float64)
        exponent = np.exp(
            self._eigenvalues[None, :] * (rates[:, None] * branch_length)
        )  # (cats, n)
        return self._project(exponent)

    def transition_derivatives(
        self, branch_length: float, rates
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``P``, ``dP/dt`` and ``d2P/dt2`` for each rate category.

        The derivative of ``exp(lambda r t)`` w.r.t. ``t`` is
        ``lambda r exp(lambda r t)``, so all three share one eigenbasis
        evaluation.  Used by Newton-Raphson branch optimization.
        """
        if branch_length < 0:
            raise ValueError("branch length must be non-negative")
        rates = np.asarray(rates, dtype=np.float64)
        lam = self._eigenvalues[None, :] * rates[:, None]  # (cats, n)
        e = np.exp(lam * branch_length)
        return (self._project(e), self._project(lam * e),
                self._project(lam * lam * e))

    def _project(self, weights: np.ndarray) -> np.ndarray:
        """``R diag(w_c) L`` for every row ``w_c`` of *weights*: one
        batched ``(c, n, k) @ (k, n)`` GEMM."""
        return (self._right * weights[:, None, :]) @ self._left

    def with_frequencies(self, frequencies) -> "SubstitutionModel":
        """The same exchangeabilities with different frequencies."""
        return SubstitutionModel(
            self.exchangeabilities, tuple(np.asarray(frequencies)), self.name
        )

    def with_exchangeabilities(self, exchangeabilities) -> "SubstitutionModel":
        """The same frequencies with different exchangeability rates."""
        return SubstitutionModel(
            tuple(np.asarray(exchangeabilities)), self.frequencies, self.name
        )


class PMatrixCache:
    """Memoized ``P`` stacks for one (model, rates) pair.

    The eigendecomposition is already computed once per
    :class:`SubstitutionModel`; what a search recomputes thousands of
    times over is the *projection* ``R diag(exp(lambda r t)) L`` — once
    per ``newview`` propagation.  (``makenewz`` never projects: its
    Newton iterates stay in the eigenbasis, see
    :func:`repro.phylo.kernels.branch_sumtable`.)  Branch lengths
    revisit the same values constantly (SPR candidates are reverted to
    their pre-move lengths, `MIN_BRANCH_LENGTH` clamps collapse many
    branches onto one value), so an LRU table keyed by the **quantized**
    branch length turns most of those projections into dictionary hits.

    Parameters
    ----------
    model:
        The substitution model whose eigensystem backs the entries.
    rates:
        Per-category (Gamma) or per-pattern (CAT) rate multipliers; the
        cache is only valid for this exact vector — the owner must call
        :meth:`invalidate` (or build a fresh cache) when either the
        model or the rates change.
    quantum:
        *Relative* branch-length quantization step.  Lengths whose
        relative difference is below one quantum share an entry
        computed at a *canonical* quantized length — never at the first
        length seen, so a cache rebuilt after :meth:`invalidate`
        reproduces every entry bit for bit regardless of lookup order
        (the chaos recovery ladder relies on this).  The key is the
        float's mantissa rounded to ``ceil(-log2(quantum))`` bits plus
        its binary exponent, and the canonical length is that rounded
        mantissa re-scaled with :func:`math.ldexp` (exactly
        representable, so no second rounding).  Quantization must be
        relative, not absolute: branches live anywhere between the
        ``1e-8`` clamp and ~10 substitutions/site, and an absolute
        snap of ``5e-13`` near the clamp is a ``5e-5`` *relative*
        perturbation — enough to push differential-oracle comparisons
        past 1e-9.  ``1e-12`` relative is far below every optimizer
        tolerance in the system (Newton uses 1e-8), so sharing never
        changes a decision.
    capacity:
        Maximum entries; least-recently-used entries are evicted.

    ``hits`` / ``misses`` count lookups cumulatively — they survive
    :meth:`invalidate` so traces can report whole-run cache efficiency.
    """

    def __init__(self, model: "SubstitutionModel", rates,
                 quantum: float = 1e-12, capacity: int = 2048):
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.model = model
        self.rates = np.asarray(rates, dtype=np.float64)
        self.quantum = quantum
        self._mantissa_bits = max(1, int(math.ceil(-math.log2(quantum))))
        self._mantissa_scale = float(2 ** self._mantissa_bits)
        self.capacity = capacity
        self._matrices: "OrderedDict[Tuple[int, int], np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def _key(self, branch_length: float) -> Tuple[int, int]:
        # frexp splits t into mantissa in [0.5, 1) and a binary
        # exponent; rounding only the mantissa keys (and later
        # canonicalizes) the length to a fixed *relative* precision.
        mantissa, exponent = math.frexp(branch_length)
        return int(round(mantissa * self._mantissa_scale)), exponent

    def _canonical(self, key: Tuple[int, int]) -> float:
        # Exactly representable: an integer mantissa of at most
        # ``_mantissa_bits + 1`` bits scaled by a power of two.
        return math.ldexp(key[0], key[1] - self._mantissa_bits)

    def matrices(self, branch_length: float) -> np.ndarray:
        """Cached :meth:`SubstitutionModel.transition_matrices`."""
        key = self._key(branch_length)
        entry = self._matrices.get(key)
        if entry is not None:
            self.hits += 1
            self._matrices.move_to_end(key)
            return entry
        self.misses += 1
        entry = self.model.transition_matrices(
            self._canonical(key), self.rates
        )
        # Stored transposed-contiguous: same shape and values, but the
        # ``p.transpose(0, 2, 1)`` every kernel takes is the C-ordered
        # operand its matmul streams (DESIGN 7.5).
        entry = np.ascontiguousarray(entry.transpose(0, 2, 1)).transpose(0, 2, 1)
        entry.setflags(write=False)
        self._matrices[key] = entry
        if len(self._matrices) > self.capacity:
            self._matrices.popitem(last=False)
        return entry

    def invalidate(self) -> None:
        """Drop every entry (model-parameter or rate change)."""
        self._matrices.clear()
        self.invalidations += 1

    def counters(self) -> Dict[str, int]:
        return {
            "pmat_hits": self.hits,
            "pmat_misses": self.misses,
            "pmat_entries": len(self._matrices),
            "pmat_invalidations": self.invalidations,
        }

    def __len__(self) -> int:
        return len(self._matrices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PMatrixCache {len(self)} entries, "
            f"{self.hits} hits / {self.misses} misses>"
        )


# -- named nucleotide model factories -----------------------------------------


def GTR(
    exchangeabilities: Sequence[float],
    frequencies: Sequence[float],
) -> SubstitutionModel:
    """General time-reversible DNA model (Tavare 1986), RAxML's default."""
    if len(frequencies) != NUM_STATES:
        raise ValueError("GTR is the four-state nucleotide model")
    return SubstitutionModel(tuple(exchangeabilities), tuple(frequencies), "GTR")


def HKY85(kappa: float = 2.0, frequencies: Optional[Sequence[float]] = None) -> SubstitutionModel:
    """Hasegawa-Kishino-Yano model: transition/transversion ratio *kappa*."""
    if frequencies is None:
        frequencies = (0.25,) * 4
    # Transitions: A<->G and C<->T.
    return SubstitutionModel(
        (1.0, kappa, 1.0, 1.0, kappa, 1.0), tuple(frequencies), "HKY85"
    )


def K80(kappa: float = 2.0) -> SubstitutionModel:
    """Kimura two-parameter model: HKY85 with equal base frequencies."""
    return SubstitutionModel(
        (1.0, kappa, 1.0, 1.0, kappa, 1.0), (0.25,) * 4, "K80"
    )


def JC69() -> SubstitutionModel:
    """Jukes-Cantor: all rates and frequencies equal."""
    return SubstitutionModel((1.0,) * 6, (0.25,) * 4, "JC69")
