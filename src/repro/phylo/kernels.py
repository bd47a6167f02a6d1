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
  model that takes a stack of tables (one branch is a one-row stack).
* :func:`branch_derivatives` — the same three numbers from explicit
  ``(P, dP/dt, d2P/dt2)`` stacks: the one-shot derivative probe and
  what the sumtable path is differentially checked against.

The loop-based oracle for every kernel here is the ``reference``
backend (:mod:`repro.phylo.engine.backends.reference`).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .dna import TIP_PARTIAL_ROWS

__all__ = [
    "SCALE_THRESHOLD",
    "SCALE_FACTOR",
    "LOG_SCALE_FACTOR",
    "contraction_path",
    "tip_terms",
    "inner_terms",
    "newview_combine",
    "scale_clv",
    "add_scale_counts",
    "newview",
    "evaluate_loglik",
    "branch_sumtable",
    "finite_derivatives",
    "StackWork",
    "SumtableProbe",
    "branch_derivatives",
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


def _blocks(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``a`` as the P step reads it against the ``(K, n, n)`` stack ``p``.

    A CAT CLV ``(1, K*m, n)`` holds one category axis over patterns
    sorted into ``K`` equal category blocks: viewed ``(K, m, n)``, block
    ``b`` meets matrix ``b`` as category ``b`` does under Gamma.
    """
    return a.reshape(len(p), -1, a.shape[-1])


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
    out: optional ``(n_cats, n_patterns, n)`` buffer to gather into.
        Under CAT it is required: a ``(1, K*m, n)`` CLV whose ``K``
        pattern blocks each gather from their own matrix's codes.

    Returns
    -------
    ``(n_cats, n_patterns, n)`` propagated terms (``out`` when given).
    """
    table = TIP_PARTIAL_ROWS if code_table is None else code_table
    per_code = table @ p.transpose(0, 2, 1)  # (cats, n_codes, n)
    if out is None or len(out) == len(p):
        # mode="clip": the default "raise" buffers ``out``; the bounds
        # check it pays for is made once, by whoever owns the pattern
        # matrix.
        return per_code.take(masks, axis=1, out=out, mode="clip")
    # CAT: one gather over the stacked per-code rows, block b's codes
    # offset into matrix b's rows.
    n_blocks, n_codes, n = per_code.shape
    codes = masks.reshape(n_blocks, -1) + np.arange(
        0, n_blocks * n_codes, n_codes)[:, None]
    per_code.reshape(-1, n).take(codes, axis=0, out=_blocks(out, p),
                                 mode="clip")
    return out


def inner_terms(p: np.ndarray, clv: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Propagate an inner CLV across a branch: ``sum_j P[c,i,j] clv[c,s,j]``.

    One batched ``(s, n) @ (n, n)`` product per category, on the
    ``(c, s, n)`` operands as stored; under CAT the same product on the
    ``(K, m, n)`` block view of the ``(1, K*m, n)`` CLV.
    """
    if len(clv) == len(p):
        return np.matmul(clv, p.transpose(0, 2, 1), out=out)
    if out is None:
        out = np.empty_like(clv)
    np.matmul(_blocks(clv, p), p.transpose(0, 2, 1), out=_blocks(out, p))
    return out


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
    # Each pattern's maximum: over the categories (whole (s, n) blocks),
    # then over the states on a transposed copy, so both reductions run
    # along a leading axis — NumPy reduces a short trailing axis one row
    # at a time, 4-6x slower at 4 states.
    by_state = np.maximum.reduce(clv, axis=0)
    pattern_max = np.maximum.reduce(np.ascontiguousarray(by_state.T), axis=0,
                                    initial=0.0)
    if not np.isfinite(pattern_max).all():
        bad = int(np.flatnonzero(~np.isfinite(pattern_max))[0])
        raise FloatingPointError(
            f"non-finite CLV entries at pattern {bad} (NaN/Inf reached the "
            f"underflow-rescaling check)"
        )
    needs = pattern_max < SCALE_THRESHOLD
    count = int(needs.sum())
    if count:
        clv[:, needs] *= SCALE_FACTOR
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
                out: np.ndarray) -> Optional[np.ndarray]:
    """Propagate one ``newview`` child across ``p`` into ``out``;
    returns its scale counts (``None`` for a tip side)."""
    if type(side) is tuple:
        clv, scale_counts = side
        inner_terms(p, clv, out=out)
        return scale_counts
    tip_terms(p, side, code_table, out=out)
    return None


def newview(left, p_left: np.ndarray, right, p_right: np.ndarray,
            out_clv: np.ndarray, out_scale: np.ndarray,
            code_table: Optional[np.ndarray] = None,
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
    left_scale = _child_term(left, p_left, code_table, out_clv)
    right_scale = _child_term(right, p_right, code_table, work)
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

    ``u_term`` is the CLV (or tip indicator expanded to ``(c, s, n)``) on
    one side of the branch; ``v_term`` is the *other* side already
    propagated across the branch's transition matrices — a scratch
    buffer this kernel overwrites with the product of the two.
    ``scale_counts`` is the combined per-pattern rescaling count of both
    sides.
    """
    # sum_i pi_i u[c,s,i] v[c,s,i] as one (c*s, n) @ (n,) product on the
    # category-major operands as stored: the operation order np.einsum
    # chose for "csi,csi,i->cs", with no CLV-sized temporary.
    c, s, n = v_term.shape
    product = np.multiply(u_term, v_term, out=v_term)
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

    ``side`` is an inner CLV ``(c, s, n)`` — one ``(k, n) @ (n, s)``
    product per category, each category's ``(s, n)`` block read as
    stored — or a ``(s,)`` vector of tip state codes, projected once per
    code (the ``tipVector`` trick of :func:`tip_terms`), gathered
    straight into the first category and copied to the rest: whole
    contiguous rows, no broadcast operand.
    """
    if side.ndim == 1:
        table = TIP_PARTIAL_ROWS if code_table is None else code_table
        (basis_t @ table.T).take(side, axis=1, out=out[0], mode="clip")
        out[1:] = out[0]
    else:
        np.matmul(basis_t, side.transpose(0, 2, 1), out=out)


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

        S[ck,s] = (sum_i pi_i u[c,s,i] R[i,k]) * (sum_j L[k,j] v[c,s,j])

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
    u_side, v_side: each side of the branch — an inner CLV ``(c, s, n)``
        or a ``(s,)`` integer vector of tip state codes.
    code_table: ``(n_codes, n)`` indicator rows per tip code; defaults
        to the DNA ambiguity-mask table.
    out, work: optional C-contiguous buffers of ``c*k*s`` doubles for
        the table and for the ``v`` side's projection.

    Returns
    -------
    The ``(c*k, s)`` sumtable (a view of ``out`` when given).
    """
    n_patterns = u_side.shape[-2] if u_side.ndim > 1 else len(u_side)
    shape = (n_cats, right.shape[1], n_patterns)
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


class _Rows(NamedTuple):
    """One row count's views of a :class:`StackWork`: the row itself
    for one branch, the leading ``count`` rows for more."""

    exp: np.ndarray  # exponentials, ``(c*k,)`` or CAT's ``(K, k)`` a row
    exp_across: np.ndarray  # ``exp`` broadcast against the powers
    basis: np.ndarray  # ``w [e, lam e, lam^2 e]`` a row
    sums: np.ndarray  # ``(3, s)`` a row: likelihoods, d1, d2
    lik: np.ndarray
    lik_across: np.ndarray  # ``lik`` broadcast against d1 and d2
    ratios: np.ndarray  # d1 and d2
    d1: np.ndarray
    d2: np.ndarray
    square: np.ndarray  # ``(s,)`` a row: d1 squared, or lnL-only sums
    square_out: np.ndarray  # ``square`` as the lnL-only GEMV writes it
    single: bool  # one row: single-row operations

    @classmethod
    def of(cls, buffers: Tuple[np.ndarray, ...], count: int) -> "_Rows":
        if count == 1:
            exp, basis, sums, square = (buffer[0] for buffer in buffers)
            exp_across = exp
        else:
            exp, basis, sums, square = (buffer[:count] for buffer in buffers)
            exp_across = exp[:, None]
        lik, row = sums[..., 0, :], square[..., 0, :]
        return cls(exp, exp_across, basis, sums, lik, lik[..., None, :],
                   sums[..., 1:, :], sums[..., 1, :], sums[..., 2, :], row,
                   square if count > 1 else row, count == 1)


class StackWork(dict):
    """Work rows of :meth:`SumtableProbe.stacked` and
    :meth:`SumtableProbe.stacked_lnl` for up to ``capacity`` branches,
    and ``work[count]``, the views of the leading ``count`` rows.

    Each count's views are made the first time the count is used and
    kept, so a call builds none: building about eleven views a call is
    what made a one-row call dearer than a probe on one table.
    """

    def __init__(self, capacity: int, exponents: Tuple[int, ...],
                 powers: Tuple[int, ...], n_patterns: int):
        super().__init__()
        self._buffers = (np.empty((capacity,) + exponents),
                         np.empty((capacity,) + powers),
                         np.empty((capacity, 3, n_patterns)),
                         np.empty((capacity, 1, n_patterns)))

    def __missing__(self, count: int) -> _Rows:
        rows = self[count] = _Rows.of(self._buffers, count)
        return rows


class SumtableProbe:
    """``t -> (lnL, d lnL/dt, d2 lnL/dt2)`` on :func:`branch_sumtable`
    stacks — the per-iteration body of ``makenewz()``, prepared once.

    Everything that depends only on the model, the rates and the pattern
    count is built here: ``lam = lambda_k r_c`` and the powers ``w_c [1,
    lam, lam^2]`` (the category weights live here, not in the table:
    exact wherever ``w_c`` is a power of two, one rounding per term
    elsewhere).  Work buffers come from :meth:`stack_work`.

    Both forms take ``K`` branches at once: ``tables`` a ``(K, c*k, s)``
    stack, ``lengths`` and ``offsets`` ``K`` floats, an offset being a
    branch's rescaling correction folded into one scalar,
    ``(pattern_weights @ scale_counts) * LOG_SCALE_FACTOR``.  A single
    branch is a one-row stack and runs single-row operations, with none
    of the per-row bookkeeping.  Each of ``K`` rows gets the bits the
    same branch gets alone: the same GEMM / GEMV per slice, the same
    element-wise ufuncs, the same per-row dot for the lnL-only sum, the
    offset taken off one Python float.  Tables are read, not copied.

    Integrated modes (one rate per category of ``cat_weights``): ``c*k``
    exponentials, one ``(3, c*k) @ (c*k, s)`` product against ``w [e,
    lam e, lam^2 e]`` and one ``(3, s) @ weights`` a branch.  CAT (one
    category of weight one, ``K`` rates): the ``(k, K*m)`` table of ``K``
    category-sorted pattern blocks, ``K*k`` exponentials, and one ``(3,
    k) @ (k, m)`` product per block on the block view.  Agrees with
    :func:`branch_derivatives` to round-off.
    """

    def __init__(self, eigenvalues: np.ndarray, rates: np.ndarray,
                 pattern_weights: np.ndarray, cat_weights: np.ndarray):
        lam = rates[:, None] * eigenvalues[None, :]  # (c, k)
        powers = np.stack([np.ones_like(lam), lam, lam * lam])
        #: pattern blocks: one per rate under CAT, 1 when integrated
        self._n_blocks = len(rates) // len(cat_weights)
        if self._n_blocks > 1:  # weight one; (K, 3, k), a block's (3, k)
            powers = np.ascontiguousarray(powers.transpose(1, 0, 2))
        else:
            powers *= cat_weights[:, None]
            lam, powers = lam.ravel(), powers.reshape(3, -1)  # (c*k,)
            self._weighted = powers[0]  # the lnL-only form's w
        self._lam = lam
        self._powers = powers
        self._weights = pattern_weights
        #: evaluations so far (both forms, one per branch), for
        #: kernel-call accounting
        self.calls = 0

    def stack_work(self, capacity: int) -> StackWork:
        """Work buffers for the stacked forms on up to ``capacity``
        branches: exponentials, basis, sums and a square row each."""
        return StackWork(capacity, self._lam.shape, self._powers.shape,
                         len(self._weights))

    def _exponentials(self, tables: np.ndarray, lengths: Sequence[float],
                      work: StackWork) -> Tuple[_Rows, np.ndarray]:
        """The exponentials into the work rows: ``(views, tables)``, the
        tables as the operations read them (one row: its table)."""
        count = len(lengths)
        if count == 1:
            if lengths[0] < 0:
                raise ValueError("branch length must be non-negative")
            rows, tables = work[1], tables[0]
            np.multiply(self._lam, lengths[0], out=rows.exp)
        else:
            if min(lengths) < 0:
                raise ValueError("branch length must be non-negative")
            rows = work[count]
            np.multiply.outer(lengths, self._lam, out=rows.exp)
        self.calls += count
        np.exp(rows.exp, out=rows.exp)
        return rows, tables

    def _blocks(self, a: np.ndarray) -> np.ndarray:
        """CAT's block view of a ``(..., r, K*m)`` operand: ``(..., K, r,
        m)``, one ``(r, m)`` matrix per pattern block."""
        return a.reshape(a.shape[:-1] + (self._n_blocks, -1)).swapaxes(-2, -3)

    @staticmethod
    def _positive(lik: np.ndarray) -> np.ndarray:
        if lik.min() <= 0:
            raise FloatingPointError(
                "non-positive site likelihood in makenewz")
        return lik

    def stacked(self, tables: np.ndarray, lengths: Sequence[float],
                offsets: Sequence[float], work: StackWork
                ) -> List[Tuple[float, float, float]]:
        """One ``(lnL, d1, d2)`` per branch."""
        rows, tables = self._exponentials(tables, lengths, work)
        if self._n_blocks > 1:
            np.multiply(self._powers, rows.exp[..., None, :], out=rows.basis)
            np.matmul(rows.basis, self._blocks(tables),
                      out=self._blocks(rows.sums))
        else:
            np.multiply(self._powers, rows.exp_across, out=rows.basis)
            np.matmul(rows.basis, tables, out=rows.sums)
        lik = self._positive(rows.lik)
        np.divide(rows.ratios, rows.lik_across, out=rows.ratios)
        np.log(lik, out=lik)
        np.multiply(rows.d1, rows.d1, out=rows.square)
        np.subtract(rows.d2, rows.square, out=rows.d2)
        totals = (rows.sums @ self._weights).tolist()  # lnL, d1, d2 a row
        if rows.single:
            lnl, d1, d2 = totals
            return [finite_derivatives(lnl - offsets[0], d1, d2)]
        return [finite_derivatives(lnl - offset, d1, d2)
                for (lnl, d1, d2), offset in zip(totals, offsets)]

    def stacked_lnl(self, tables: np.ndarray, lengths: Sequence[float],
                    offsets: Sequence[float], work: StackWork
                    ) -> List[float]:
        """One log likelihood (no derivatives) per branch: the Newton
        loop's final re-score.  Equal to :meth:`stacked`'s to summation
        round-off."""
        rows, tables = self._exponentials(tables, lengths, work)
        lik = rows.square
        if self._n_blocks > 1:
            np.matmul(rows.exp[..., None, :], self._blocks(tables),
                      out=self._blocks(lik[..., None, :]))
        else:
            np.multiply(self._weighted, rows.exp, out=rows.exp)
            np.matmul(rows.exp_across, tables, out=rows.square_out)
        logs = np.log(self._positive(lik), out=lik)
        if rows.single:
            lnls = [float(self._weights @ logs) - offsets[0]]
            if math.isfinite(lnls[0]):
                return lnls
        else:
            lnls = [float(self._weights @ row) - offset
                    for row, offset in zip(logs, offsets)]
            if all(map(math.isfinite, lnls)):
                return lnls
        raise FloatingPointError(f"non-finite log likelihood: {lnls!r}")

    def rows(self, tables: np.ndarray, offsets: Sequence[float],
             work: StackWork):
        """The Newton loop's ``(derivatives, lnl_at)`` row callables on
        a stack: row ``r`` has offset ``offsets[r]``, and the loop's
        ``rows`` are the stack's leading tables in that order."""
        if len(offsets) == 1:
            return (lambda t, rows: self.stacked(tables, t, offsets, work),
                    lambda t, rows: self.stacked_lnl(tables, t, offsets,
                                                     work))

        def on(form):
            return lambda t, rows: form(tables[:len(rows)], t,
                                        [offsets[r] for r in rows], work)
        return on(self.stacked), on(self.stacked_lnl)


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

    ``model_terms`` is ``(P, dP/dt, d2P/dt2)``, each ``(K, n, n)``: one
    matrix per category, or under CAT one per pattern block of the
    ``(1, K*m, n)`` CLVs.  ``u_clv``/``v_clv`` are the CLVs facing the
    branch (tips already expanded).  Returns ``(lnL, d lnL/dt, d2
    lnL/dt2)``.
    """
    p, dp, d2p = model_terms
    # w[c,s,i,j] contraction done in two steps to stay O(c*s*16).
    left = u_clv * pi  # fold pi into the u side
    if len(left) != len(p):  # CAT: the block view, then back to (1, s)
        left, v_clv = _blocks(left, p), _blocks(v_clv, p)
    shape = (len(cat_weights), -1)
    f = _einsum("csi,cij,csj->cs", left, p, v_clv).reshape(shape)
    f1 = _einsum("csi,cij,csj->cs", left, dp, v_clv).reshape(shape)
    f2 = _einsum("csi,cij,csj->cs", left, d2p, v_clv).reshape(shape)
    lik = f.T @ cat_weights
    d1 = f1.T @ cat_weights
    d2 = f2.T @ cat_weights
    if (lik <= 0).any():
        raise FloatingPointError("non-positive site likelihood in makenewz")
    g1 = d1 / lik
    lnl = float(pattern_weights @ (np.log(lik) - scale_counts * LOG_SCALE_FACTOR))
    dlnl = float(pattern_weights @ g1)
    d2lnl = float(pattern_weights @ (d2 / lik - g1 * g1))
    return lnl, dlnl, d2lnl


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
