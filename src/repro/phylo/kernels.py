"""Numerical likelihood kernels (the paper's SPE-offloaded inner loops).

These functions are the compute bodies of RAxML's three hot functions:

* :func:`newview_combine` — the *large loop* of ``newview()``: for every
  site pattern and rate category, propagate the two child conditional
  likelihood vectors (CLVs) across their branches and multiply them.
  The paper reports 44 double-precision FLOPs per iteration of this loop
  (22 after SIMD vectorization).
* :func:`scale_clv` — the numerical-underflow rescaling check: the large
  ``if()`` with four ABS comparisons that consumed 45 % of ``newview()``
  on the SPE until it was cast to integer compares and vectorized.
* :func:`newview` — the whole offloaded ``newview()``: both child
  propagations (tip or inner, per side), the combine and the rescaling
  check as one call on resolved operands.
* :func:`evaluate_loglik` — ``evaluate()``: dot the two CLVs facing a
  branch with the transition matrix and base frequencies, and sum
  weighted log site-likelihoods.
* :func:`branch_sumtable` / :class:`SumtableProbe` — ``makenewz()``:
  project the two CLVs facing a branch into the model's eigenbasis once
  (the "sumtable"), then pay only a diagonal ``exp(lambda r t)``
  contraction per Newton-Raphson iteration for the log likelihood and
  its first two branch-length derivatives, on a probe prepared once per
  model (:func:`sumtable_derivatives` is its one-shot form).
* :func:`branch_derivatives` — the same three numbers from explicit
  ``(P, dP/dt, d2P/dt2)`` stacks: the one-shot derivative probe and
  what the sumtable path is differentially checked against.

Every vectorized kernel has a ``*_reference`` twin written as plain
Python loops.  The references are orders of magnitude slower and exist
only as oracles for the test suite.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from .dna import NUM_STATES, TIP_PARTIAL_ROWS

__all__ = [
    "SCALE_THRESHOLD",
    "SCALE_FACTOR",
    "LOG_SCALE_FACTOR",
    "contraction_path",
    "tip_terms",
    "inner_terms",
    "tip_terms_persite",
    "inner_terms_persite",
    "newview_combine",
    "scale_clv",
    "add_scale_counts",
    "newview",
    "evaluate_loglik",
    "branch_sumtable",
    "finite_derivatives",
    "SumtableProbe",
    "sumtable_derivatives",
    "branch_derivatives",
    "branch_derivatives_persite",
    "newview_combine_reference",
    "evaluate_loglik_reference",
]

# -- einsum contraction-path cache --------------------------------------------
#
# ``np.einsum(..., optimize=True)`` re-derives the contraction order on
# every call; at thousands of kernel invocations per sweep the path
# search itself becomes measurable.  Paths depend only on the subscripts
# and operand shapes, so they are derived once and memoized.
#
# Even with the path memoized, ``np.einsum(..., optimize=path)`` parses
# the subscripts and re-plans its matmul form in Python on every call
# (~20 us, against ~6 us of arithmetic at 200 patterns).  The kernels on
# the default hot path (propagation, ``newview``, ``evaluate_loglik``,
# the sumtable pair) therefore spell out the ``np.matmul`` that einsum
# would have dispatched to — same BLAS call, same bits — and only the
# three-operand derivative kernels, off that path, still come through
# here.
#
# The cache is shared by every engine in the process, and engines may
# run on several threads at once, so population is guarded by a lock.
# Reads take the lock too: a plain dict ``get`` racing a concurrent
# resize is not guaranteed safe, and the lock cost is dwarfed by the
# einsum itself.  ``np.einsum_path`` is computed outside the lock (it is
# pure); a race at worst derives the same path twice.

_PATH_CACHE: Dict[Tuple, List] = {}
_PATH_CACHE_LOCK = threading.Lock()


def contraction_path(subscripts: str, *operands: np.ndarray) -> List:
    """The cached optimal contraction path for ``np.einsum(subscripts, ...)``.

    Thread-safe: engines on different threads may populate the cache
    simultaneously.
    """
    key = (subscripts,) + tuple(op.shape for op in operands)
    with _PATH_CACHE_LOCK:
        path = _PATH_CACHE.get(key)
    if path is None:
        path = np.einsum_path(subscripts, *operands, optimize="optimal")[0]
        with _PATH_CACHE_LOCK:
            _PATH_CACHE[key] = path
    return path


def _einsum(subscripts: str, *operands: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.einsum(subscripts, *operands,
                     optimize=contraction_path(subscripts, *operands), out=out)

#: Rescaling threshold: when every entry of a pattern's CLV falls below
#: this, the row is multiplied by :data:`SCALE_FACTOR`.  RAxML uses
#: ``2^-256`` / ``2^+256``; we keep the same constants.
SCALE_THRESHOLD = 2.0 ** -256
SCALE_FACTOR = 2.0 ** 256
LOG_SCALE_FACTOR = 256.0 * math.log(2.0)


def tip_terms(p: np.ndarray, masks: np.ndarray,
              code_table: Optional[np.ndarray] = None,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Propagate tip states across a branch: ``sum_j P[c,i,j] tip[s,j]``.

    Because a tip column only takes one of a small set of codes (15
    ambiguity masks for DNA, ~25 for amino acids), the product is
    computed once per code and gathered — RAxML's ``tipVector`` trick,
    which is what makes the paper's tip-case loops so much cheaper than
    the inner-inner case.

    Parameters
    ----------
    p: ``(n_cats, n, n)`` transition matrices.
    masks: ``(n_patterns,)`` tip state codes (indices into the table).
    code_table: ``(n_codes, n)`` indicator rows per code; defaults to
        the DNA ambiguity-mask table.
    out: optional ``(n_patterns, n_cats, n)`` buffer to gather into.

    Returns
    -------
    ``(n_patterns, n_cats, n)`` propagated terms.
    """
    table = TIP_PARTIAL_ROWS if code_table is None else code_table
    per_code = table @ p.transpose(0, 2, 1)  # (cats, n_codes, n)
    # mode="clip": the default "raise" buffers ``out``; the bounds check
    # it pays for is made once, by whoever owns the pattern matrix.
    return np.take(per_code.transpose(1, 0, 2), masks, axis=0, out=out,
                   mode="clip")


def inner_terms(p: np.ndarray, clv: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Propagate an inner CLV across a branch: ``sum_j P[c,i,j] clv[s,c,j]``.

    One ``(s, n) @ (n, n)`` product per category, on category-major
    views of the ``(s, c, n)`` operands.
    """
    if out is None:
        out = np.empty_like(clv)
    np.matmul(clv.transpose(1, 0, 2), p.transpose(0, 2, 1),
              out=out.transpose(1, 0, 2))
    return out


def tip_terms_persite(p: np.ndarray, masks: np.ndarray,
                      code_table: Optional[np.ndarray] = None,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """CAT-mode tip propagation with per-pattern transition matrices.

    ``p`` has shape ``(n_patterns, n, n)`` (each site's own rate); the
    result keeps the singleton category axis: ``(n_patterns, 1, n)``.
    """
    table = TIP_PARTIAL_ROWS if code_table is None else code_table
    tips = table[masks]  # (s, n)
    return np.matmul(tips[:, None, :], p.transpose(0, 2, 1), out=out)


def inner_terms_persite(p: np.ndarray, clv: np.ndarray,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """CAT-mode inner propagation with per-pattern transition matrices."""
    return np.matmul(clv, p.transpose(0, 2, 1), out=out)


def newview_combine(left_term: np.ndarray, right_term: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Combine two propagated child terms into the parent CLV."""
    if out is None:
        return left_term * right_term
    return np.multiply(left_term, right_term, out=out)


def scale_clv(clv: np.ndarray, scale_counts: np.ndarray) -> int:
    """Rescale underflowing patterns in place; returns how many scaled.

    For every pattern whose maximum CLV entry (over categories and
    states) is below :data:`SCALE_THRESHOLD`, multiply the whole pattern
    row by :data:`SCALE_FACTOR` and increment its scale counter.  This is
    the vectorized form of the paper's section 5.2.3 conditional.

    A CLV containing NaN or +/-Inf raises :class:`FloatingPointError`
    immediately: NaN compares false against the threshold, so without
    the explicit check a poisoned CLV would silently skip rescaling and
    surface much later as an inscrutable log-likelihood failure.
    """
    # The common case, decided by two whole-array reductions: every
    # entry (hence every pattern's maximum) is at or above the threshold
    # and below +Inf.  A NaN anywhere makes the minimum NaN, which
    # compares false, so anything doubtful takes the per-pattern path.
    if (clv.min(initial=np.inf) >= SCALE_THRESHOLD
            and clv.max(initial=0.0) < np.inf):
        return 0
    pattern_max = np.max(clv, axis=(1, 2), initial=0.0)
    if not np.isfinite(pattern_max).all():
        bad = int(np.flatnonzero(~np.isfinite(pattern_max))[0])
        raise FloatingPointError(
            f"non-finite CLV entries at pattern {bad} (NaN/Inf reached the "
            f"underflow-rescaling check)"
        )
    needs = pattern_max < SCALE_THRESHOLD
    count = int(needs.sum())
    if count:
        clv[needs] *= SCALE_FACTOR
        scale_counts[needs] += 1
    return count


def add_scale_counts(left: Optional[np.ndarray],
                     right: Optional[np.ndarray], out: np.ndarray) -> None:
    """``out = left + right`` over the children's per-pattern scale
    counts, where ``None`` is a tip side (all zeros)."""
    if left is None and right is None:
        out.fill(0)
    elif left is None:
        np.copyto(out, right)
    elif right is None:
        np.copyto(out, left)
    else:
        np.add(left, right, out=out)


def _child_term(side, p: np.ndarray, code_table: Optional[np.ndarray],
                per_site: bool, out: np.ndarray) -> Optional[np.ndarray]:
    """Propagate one ``newview`` child across ``p`` into ``out``;
    returns its scale counts (``None`` for a tip side)."""
    if type(side) is tuple:
        clv, scale_counts = side
        if per_site:
            inner_terms_persite(p, clv, out=out)
        else:
            inner_terms(p, clv, out=out)
        return scale_counts
    if per_site:
        tip_terms_persite(p, side, code_table, out=out)
    else:
        tip_terms(p, side, code_table, out=out)
    return None


def newview(left, p_left: np.ndarray, right, p_right: np.ndarray,
            out_clv: np.ndarray, out_scale: np.ndarray,
            code_table: Optional[np.ndarray] = None,
            per_site: bool = False,
            work: Optional[np.ndarray] = None,
            hook=None) -> int:
    """One whole ``newview()``: the parent CLV and scale counts of two
    children, written into ``out_clv`` / ``out_scale``; returns how many
    patterns were rescaled.

    Each child side is a ``(s,)`` vector of tip state codes or an inner
    ``(clv, scale_counts)`` pair — the paper's tip/tip, tip/inner,
    inner/inner case split, decided per side.  The left term goes
    straight into ``out_clv``, the right one into ``work`` (a
    ``out_clv``-shaped scratch buffer), and the combine is the in-place
    product; the result is bit-identical to composing
    :func:`tip_terms` / :func:`inner_terms`, :func:`newview_combine`
    and :func:`scale_clv` by hand.

    ``hook(out_clv, out_scale)``, when given, runs between the combine
    and the rescaling check — so whatever it does to the fresh CLV is
    still seen by this operation's non-finite guard.
    """
    if work is None:
        work = np.empty_like(out_clv)
    left_scale = _child_term(left, p_left, code_table, per_site, out_clv)
    right_scale = _child_term(right, p_right, code_table, per_site, work)
    np.multiply(out_clv, work, out=out_clv)
    add_scale_counts(left_scale, right_scale, out_scale)
    if hook is not None:
        hook(out_clv, out_scale)
    return scale_clv(out_clv, out_scale)


def evaluate_loglik(
    pi: np.ndarray,
    cat_weights: np.ndarray,
    pattern_weights: np.ndarray,
    u_term: np.ndarray,
    v_term: np.ndarray,
    scale_counts: np.ndarray,
) -> float:
    """Weighted log likelihood at a branch.

    ``u_term`` is the CLV (or tip indicator expanded to ``(s, c, 4)``) on
    one side of the branch; ``v_term`` is the *other* side already
    propagated across the branch's transition matrices.  ``scale_counts``
    is the combined per-pattern rescaling count of both sides.
    """
    # sum_i pi_i u[s,c,i] v[s,c,i] as one (c*s, n) @ (n,) product on a
    # category-major copy: the operation order np.einsum chose for
    # "sci,sci,i->sc", kept so the log likelihood keeps its bits.
    s, c, n = v_term.shape
    product = np.empty((c, s, n), dtype=np.float64)
    np.multiply(u_term.transpose(1, 0, 2), v_term.transpose(1, 0, 2),
                out=product)
    per_cat = (product.reshape(c * s, n) @ pi).reshape(c, s).T
    site_lik = per_cat @ cat_weights
    if (site_lik <= 0).any():
        raise FloatingPointError("non-positive site likelihood (underflow?)")
    logs = np.log(site_lik) - scale_counts * LOG_SCALE_FACTOR
    return float(pattern_weights @ logs)


def _project_side(side: np.ndarray, basis_t: np.ndarray,
                  code_table: Optional[np.ndarray],
                  out: np.ndarray) -> None:
    """One branch side projected onto ``basis_t`` ``(k, n)`` into ``out``
    ``(c, k, s)`` — category-major, patterns innermost.

    ``side`` is an inner CLV ``(s, c, n)`` — one ``(k, n) @ (n, s)``
    product per category — or a ``(s,)`` vector of tip state codes,
    projected once per code (the ``tipVector`` trick of
    :func:`tip_terms`), gathered straight into the first category and
    copied to the rest: whole contiguous rows, no broadcast operand.
    """
    if side.ndim == 1:
        table = TIP_PARTIAL_ROWS if code_table is None else code_table
        np.take(basis_t @ table.T, side, axis=1, out=out[0], mode="clip")
        out[1:] = out[0]
    else:
        np.matmul(basis_t, side.transpose(1, 2, 0), out=out)


def branch_sumtable(
    right: np.ndarray,
    left: np.ndarray,
    pi: np.ndarray,
    n_cats: int,
    u_side: np.ndarray,
    v_side: np.ndarray,
    code_table: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The ``makenewz`` sumtable: both CLVs facing a branch, projected
    into the eigenbasis once per branch.

    With ``P(t) = R diag(exp(lambda_k r_c t)) L`` the site likelihood at
    the branch is ``sum_c w_c sum_ij pi_i u_i P_ij(t) v_j =
    sum_ck w_c S[ck,s] exp(lambda_k r_c t)`` for the length-independent ::

        S[ck,s] = (sum_i pi_i u[s,c,i] R[i,k]) * (sum_j L[k,j] v[s,c,j])

    so every Newton iteration on ``t`` (:class:`SumtableProbe`, which
    carries the category weights ``w_c``) costs ``O(s*c*k)`` instead of
    three ``O(s*c*n^2)`` contractions plus a fresh ``(P, dP, d2P)``
    projection.  The table is stored the way the probe reads it:
    ``(c*k, s)``, C-contiguous.

    Parameters
    ----------
    right, left: the model's ``(n, k)`` / ``(k, n)`` eigenvector matrices.
    pi: ``(n,)`` stationary frequencies.
    n_cats: rate categories ``c`` (1 in CAT mode, where the CLVs keep a
        singleton category axis).
    u_side, v_side: each side of the branch — an inner CLV ``(s, c, n)``
        or a ``(s,)`` integer vector of tip state codes.
    code_table: ``(n_codes, n)`` indicator rows per tip code; defaults
        to the DNA ambiguity-mask table.
    out, work: optional C-contiguous buffers of ``c*k*s`` doubles for
        the table and for the ``v`` side's projection.

    Returns
    -------
    The ``(c*k, s)`` sumtable (a view of ``out`` when given).
    """
    shape = (n_cats, right.shape[1], len(u_side))
    out = np.empty(shape) if out is None else out.reshape(shape)
    work = np.empty(shape) if work is None else work.reshape(shape)
    _project_side(u_side, right.T * pi, code_table, out)
    _project_side(v_side, left, code_table, work)
    np.multiply(out, work, out=out)
    return out.reshape(-1, shape[2])


def finite_derivatives(lnl: float, d1: float,
                       d2: float) -> Tuple[float, float, float]:
    """Pass a ``(lnL, d1, d2)`` triple through, or raise the
    ``FloatingPointError`` the engine's degradation ladder recovers
    from."""
    if not (math.isfinite(lnl) and math.isfinite(d1) and math.isfinite(d2)):
        raise FloatingPointError(
            f"non-finite branch derivatives: ({lnl!r}, {d1!r}, {d2!r})"
        )
    return lnl, d1, d2


class SumtableProbe:
    """``t -> (lnL, d lnL/dt, d2 lnL/dt2)`` on a :func:`branch_sumtable`
    — the per-iteration body of ``makenewz()``, prepared once.

    Everything that depends only on the model, the rates and the pattern
    count is built here: ``lam = lambda_k r_c``, the powers ``w_c [1,
    lam, lam^2]`` (the category weights live here, not in the table:
    exact wherever ``w_c`` is a power of two, one rounding per term
    elsewhere) and the work buffers.  :meth:`load` points the probe at
    one branch's table; each evaluation is then about ten NumPy calls.

    Integrated modes (``rates`` is ``(c,)``): ``c*k`` exponentials, one
    ``(3, c*k) @ (c*k, s)`` product against ``w [e, lam e, lam^2 e]`` and
    one ``(3, s) @ weights``.  CAT (``per_site=True``, ``rates`` is
    ``(s,)``, one category): the same table against a per-pattern
    ``(k, s)`` exponent, element-wise.  Agrees with
    :func:`branch_derivatives` / :func:`branch_derivatives_persite` to
    round-off.
    """

    def __init__(self, eigenvalues: np.ndarray, rates: np.ndarray,
                 pattern_weights: np.ndarray, cat_weights: np.ndarray,
                 per_site: bool = False):
        lam = rates[:, None] * eigenvalues[None, :]  # (c, k) or (s, k)
        powers = np.stack([np.ones_like(lam), lam, lam * lam])
        if per_site:  # one category of weight one; patterns innermost
            lam = np.ascontiguousarray(lam.T)  # (k, s)
            powers = np.ascontiguousarray(powers.transpose(0, 2, 1))
        else:
            powers *= cat_weights[:, None]
            lam, powers = lam.ravel(), powers.reshape(3, -1)  # (c*k,)
        self._per_site = per_site
        self._lam = lam
        self._powers = powers
        self._weights = pattern_weights
        s = len(pattern_weights)
        self._exp = np.empty_like(lam)
        self._basis = np.empty_like(self._powers)
        self._sums = np.empty((3, s), dtype=np.float64)
        self._square = np.empty(s, dtype=np.float64)
        self._table: Optional[np.ndarray] = None
        self._offset = 0.0
        #: evaluations so far (both flavours), for kernel-call accounting
        self.calls = 0

    def load(self, sumtable: np.ndarray,
             scale_offset: float = 0.0) -> "SumtableProbe":
        """Point the probe at one branch: its ``(c*k, s)`` sumtable and
        its rescaling correction folded into one scalar,
        ``(pattern_weights @ scale_counts) * LOG_SCALE_FACTOR``.  The
        table is read, not copied: the probe is good until it changes."""
        self._table = sumtable
        self._offset = scale_offset
        return self

    def _exponentials(self, branch_length: float) -> np.ndarray:
        if branch_length < 0:
            raise ValueError("branch length must be non-negative")
        self.calls += 1
        np.multiply(self._lam, branch_length, out=self._exp)
        return np.exp(self._exp, out=self._exp)

    @staticmethod
    def _positive(lik: np.ndarray) -> np.ndarray:
        if lik.min() <= 0:
            raise FloatingPointError(
                "non-positive site likelihood in makenewz")
        return lik

    def __call__(self, branch_length: float) -> Tuple[float, float, float]:
        exp, sums = self._exponentials(branch_length), self._sums
        if self._per_site:
            np.multiply(exp, self._table, out=exp)
            np.multiply(self._powers, exp, out=self._basis)
            self._basis.sum(axis=1, out=sums)
        else:
            np.multiply(self._powers, exp, out=self._basis)
            np.matmul(self._basis, self._table, out=sums)
        lik = self._positive(sums[0])
        np.divide(sums[1:], lik, out=sums[1:])  # d1/lik, d2/lik
        np.log(lik, out=lik)
        np.multiply(sums[1], sums[1], out=self._square)
        np.subtract(sums[2], self._square, out=sums[2])
        lnl, d1, d2 = (sums @ self._weights).tolist()
        return finite_derivatives(lnl - self._offset, d1, d2)

    def lnl(self, branch_length: float) -> float:
        """The log likelihood alone (no derivatives): the Newton loop's
        final re-score.  Equal to ``self(t)[0]`` to summation round-off."""
        exp = self._exponentials(branch_length)
        if self._per_site:
            lik = np.multiply(exp, self._table, out=exp).sum(axis=0)
        else:
            lik = np.multiply(self._powers[0], exp, out=exp) @ self._table
        lnl = float(self._weights @ np.log(self._positive(lik)))
        lnl -= self._offset
        if not math.isfinite(lnl):
            raise FloatingPointError(f"non-finite log likelihood: {lnl!r}")
        return lnl


def sumtable_derivatives(
    sumtable: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    branch_length: float,
    pattern_weights: np.ndarray,
    cat_weights: np.ndarray,
    scale_offset: float = 0.0,
    per_site: bool = False,
) -> Tuple[float, float, float]:
    """``(lnL, d lnL/dt, d2 lnL/dt2)`` at one branch length from a
    :func:`branch_sumtable`: a one-shot :class:`SumtableProbe`."""
    probe = SumtableProbe(eigenvalues, rates, pattern_weights, cat_weights,
                          per_site)
    return probe.load(sumtable, scale_offset)(branch_length)


def branch_derivatives(
    model_terms: Tuple[np.ndarray, np.ndarray, np.ndarray],
    pi: np.ndarray,
    cat_weights: np.ndarray,
    pattern_weights: np.ndarray,
    u_clv: np.ndarray,
    v_clv: np.ndarray,
    scale_counts: np.ndarray,
) -> Tuple[float, float, float]:
    """Log-likelihood and its first two branch-length derivatives.

    ``model_terms`` is ``(P, dP/dt, d2P/dt2)``, each ``(n_cats, 4, 4)``.
    ``u_clv``/``v_clv`` are the CLVs facing the branch (tips already
    expanded).  Returns ``(lnL, d lnL/dt, d2 lnL/dt2)``.
    """
    p, dp, d2p = model_terms
    # w[s,c,i,j] contraction done in two steps to stay O(s*c*16).
    left = u_clv * pi[None, None, :]  # fold pi into the u side
    f = _einsum("sci,cij,scj->sc", left, p, v_clv)
    f1 = _einsum("sci,cij,scj->sc", left, dp, v_clv)
    f2 = _einsum("sci,cij,scj->sc", left, d2p, v_clv)
    lik = f @ cat_weights
    d1 = f1 @ cat_weights
    d2 = f2 @ cat_weights
    if (lik <= 0).any():
        raise FloatingPointError("non-positive site likelihood in makenewz")
    g1 = d1 / lik
    lnl = float(pattern_weights @ (np.log(lik) - scale_counts * LOG_SCALE_FACTOR))
    dlnl = float(pattern_weights @ g1)
    d2lnl = float(pattern_weights @ (d2 / lik - g1 * g1))
    return lnl, dlnl, d2lnl


def branch_derivatives_persite(
    model_terms: Tuple[np.ndarray, np.ndarray, np.ndarray],
    pi: np.ndarray,
    pattern_weights: np.ndarray,
    u_clv: np.ndarray,
    v_clv: np.ndarray,
    scale_counts: np.ndarray,
) -> Tuple[float, float, float]:
    """CAT-mode :func:`branch_derivatives`: per-pattern P matrices.

    ``model_terms`` matrices have shape ``(n_patterns, 4, 4)`` (each
    site's own rate); CLVs keep their singleton category axis.
    """
    p, dp, d2p = model_terms
    left = u_clv[:, 0, :] * pi[None, :]
    v = v_clv[:, 0, :]
    lik = _einsum("si,sij,sj->s", left, p, v)
    d1 = _einsum("si,sij,sj->s", left, dp, v)
    d2 = _einsum("si,sij,sj->s", left, d2p, v)
    if (lik <= 0).any():
        raise FloatingPointError("non-positive site likelihood in makenewz")
    g1 = d1 / lik
    lnl = float(pattern_weights @ (np.log(lik) - scale_counts * LOG_SCALE_FACTOR))
    dlnl = float(pattern_weights @ g1)
    d2lnl = float(pattern_weights @ (d2 / lik - g1 * g1))
    return lnl, dlnl, d2lnl


# -- reference (scalar) implementations --------------------------------------


def newview_combine_reference(
    p_left: np.ndarray,
    p_right: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> np.ndarray:
    """Scalar-loop oracle for the full newview computation.

    ``left``/``right`` are child CLVs of shape ``(s, c, 4)`` (tips must be
    expanded by the caller).  Returns the unscaled parent CLV.
    """
    n_patterns, n_cats, _ = left.shape
    out = np.zeros_like(left)
    for s in range(n_patterns):
        for c in range(n_cats):
            for i in range(NUM_STATES):
                acc_l = 0.0
                acc_r = 0.0
                for j in range(NUM_STATES):
                    acc_l += p_left[c, i, j] * left[s, c, j]
                    acc_r += p_right[c, i, j] * right[s, c, j]
                out[s, c, i] = acc_l * acc_r
    return out


def evaluate_loglik_reference(
    p: np.ndarray,
    pi: np.ndarray,
    cat_weights: np.ndarray,
    pattern_weights: np.ndarray,
    u_clv: np.ndarray,
    v_clv: np.ndarray,
    scale_counts: np.ndarray,
) -> float:
    """Scalar-loop oracle for ``evaluate()``."""
    n_patterns, n_cats, _ = u_clv.shape
    total = 0.0
    for s in range(n_patterns):
        site = 0.0
        for c in range(n_cats):
            cat = 0.0
            for i in range(NUM_STATES):
                prop = 0.0
                for j in range(NUM_STATES):
                    prop += p[c, i, j] * v_clv[s, c, j]
                cat += pi[i] * u_clv[s, c, i] * prop
            site += cat_weights[c] * cat
        total += pattern_weights[s] * (
            math.log(site) - scale_counts[s] * LOG_SCALE_FACTOR
        )
    return total


# -- FLOP accounting ----------------------------------------------------------
#
# The paper counts 36 double-precision FLOPs per iteration of the small
# transition-matrix loop and 44 per iteration of the large likelihood
# loop (dropping to 24 and 22 after SIMD vectorization).  The trace layer
# uses these constants to convert kernel-call events into paper-equivalent
# FLOP counts.

FLOPS_SMALL_LOOP_SCALAR = 36
FLOPS_SMALL_LOOP_VECTOR = 24
FLOPS_LARGE_LOOP_SCALAR = 44
FLOPS_LARGE_LOOP_VECTOR = 22
