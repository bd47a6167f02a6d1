"""The loop-based oracle backend.

Every kernel is written as plain Python loops over patterns, rate
categories and states, sharing **no** vectorized code path with the
``einsum`` backend — it even projects its own transition matrices
element-wise (``uses_pmat_cache = False``), so the engine's einsum-based
``SubstitutionModel.transition_matrices`` and the quantized P-matrix
cache are both off this path.  The one shared numeric artifact is the
model's eigensystem: verifying it independently would mean
reimplementing ``eigh``.

The arithmetic *order* of every accumulation deliberately reproduces the
original standalone ``ReferenceEngine`` (pre-refactor), so the committed
golden corpus' oracle log likelihoods remain bit-identical.  The scaling
discipline matches the fast kernels exactly (threshold ``2^-256``, exact
power-of-two multiplier, NaN/Inf guard), so scale counts agree with
every other backend bit for bit.

Orders of magnitude slower than ``einsum`` by design; use tiny
instances (a handful of taxa, tens of patterns).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...dna import TIP_PARTIAL_ROWS
from ...kernels import LOG_SCALE_FACTOR, SCALE_FACTOR, SCALE_THRESHOLD
from ..protocol import KernelBackend, register_backend

__all__ = ["ReferenceBackend"]


@register_backend("reference")
class ReferenceBackend(KernelBackend):
    """Deliberately slow scalar loops — the differential oracle."""

    name = "reference"
    uses_pmat_cache = False

    def __init__(self) -> None:
        self.kernel_calls = 0

    # -- transition-matrix projection (element-wise) -------------------------

    def _project(self, model, rates, t: float, order: int
                 ) -> List[List[List[float]]]:
        """``d^order/dt^order P(r t)`` for every rate row, as lists.

        ``P[r][i][j] = sum_k R[i][k] (lam_k r)^order exp(lam_k r t) L[k][j]``.
        """
        eigenvalues = [float(x) for x in model._eigenvalues]
        right = model._right.tolist()
        left = model._left.tolist()
        n = len(eigenvalues)
        out = []
        for r in (float(x) for x in rates):
            mat = [[0.0] * n for _ in range(n)]
            weights = []
            for lam in eigenvalues:
                lam_r = lam * r
                weights.append((lam_r ** order) * math.exp(lam_r * t))
            for i in range(n):
                row_r = right[i]
                row = mat[i]
                for j in range(n):
                    acc = 0.0
                    for k in range(n):
                        acc += row_r[k] * weights[k] * left[k][j]
                    row[j] = acc
            out.append(mat)
        return out

    def transition_matrices(self, model, rates, branch_length: float
                            ) -> np.ndarray:
        if branch_length < 0:
            raise ValueError("branch length must be non-negative")
        return np.asarray(
            self._project(model, rates, branch_length, 0), dtype=np.float64
        )

    def transition_derivatives(self, model, rates, branch_length: float
                               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if branch_length < 0:
            raise ValueError("branch length must be non-negative")
        return tuple(
            np.asarray(self._project(model, rates, branch_length, order),
                       dtype=np.float64)
            for order in (0, 1, 2)
        )

    # -- newview -------------------------------------------------------------

    @staticmethod
    def _matrix_index(n_matrices: int, n_cats: int, n_patterns: int):
        """``(s, c) ->`` the index of pattern *s*'s category-*c* matrix:
        ``c`` when each category has one; under CAT (one category, ``K``
        matrices over ``K`` equal pattern blocks) *s*'s block."""
        width = n_patterns * n_cats // n_matrices
        return lambda s, c: (s // width) * n_cats + c

    def _propagate(self, p, source, out: np.ndarray) -> None:
        """``out[c,s,i] = sum_j P[.,i,j] source[c][s][j]`` by scalar loops."""
        n_cats, n_patterns, n = out.shape
        p = np.asarray(p).tolist()
        index = self._matrix_index(len(p), n_cats, n_patterns)
        for s in range(n_patterns):
            for c in range(n_cats):
                mat = p[index(s, c)]
                src = source[c][s]
                dst = [0.0] * n
                for i in range(n):
                    acc = 0.0
                    row = mat[i]
                    for j in range(n):
                        acc += row[j] * src[j]
                    dst[i] = acc
                out[c, s] = dst

    def tip_terms(self, p, masks, code_table, out=None):
        self.kernel_calls += 1
        table = TIP_PARTIAL_ROWS if code_table is None else code_table
        rows = table[np.asarray(masks)].tolist()  # (s, n)
        n = len(rows[0]) if rows else 0
        if out is None:
            out = np.empty((len(p), len(rows), n), dtype=np.float64)
        self._propagate(p, [rows] * out.shape[0], out)
        return out

    def inner_terms(self, p, clv, out=None):
        self.kernel_calls += 1
        if out is None:
            out = np.empty_like(np.asarray(clv), dtype=np.float64)
        self._propagate(p, np.asarray(clv).tolist(), out)
        return out

    def newview_combine(self, left_term, right_term, out=None):
        self.kernel_calls += 1
        left = np.asarray(left_term).tolist()
        right = np.asarray(right_term).tolist()
        if out is None:
            out = np.empty_like(np.asarray(left_term), dtype=np.float64)
        for c in range(len(left)):
            lc, rc = left[c], right[c]
            for s in range(len(lc)):
                t1, t2 = lc[s], rc[s]
                out[c, s] = [t1[i] * t2[i] for i in range(len(t1))]
        return out

    def scale_clv(self, clv, scale_counts) -> int:
        self.kernel_calls += 1
        n_cats, n_patterns, n = clv.shape
        values = clv.tolist()
        count = 0
        for s in range(n_patterns):
            pattern_max = 0.0
            for c in range(n_cats):
                row = values[c][s]
                for i in range(n):
                    value = row[i]
                    if not math.isfinite(value):
                        raise FloatingPointError(
                            f"non-finite CLV entries at pattern {s} (NaN/Inf "
                            f"reached the underflow-rescaling check)"
                        )
                    if value > pattern_max:
                        pattern_max = value
            if pattern_max < SCALE_THRESHOLD:
                for c in range(n_cats):
                    row = values[c][s]
                    for i in range(n):
                        row[i] *= SCALE_FACTOR
                    clv[c, s] = row
                scale_counts[s] += 1
                count += 1
        return count

    # -- evaluate ------------------------------------------------------------

    def evaluate_loglik(self, pi, cat_weights, pattern_weights, u_term,
                        v_term, scale_counts) -> float:
        self.kernel_calls += 1
        u = np.asarray(u_term).tolist()
        v = np.asarray(v_term).tolist()
        pi = [float(x) for x in pi]
        cw = [float(x) for x in cat_weights]
        n_patterns = len(u[0])
        n = len(pi)
        total = 0.0
        for s in range(n_patterns):
            site = 0.0
            for c in range(len(cw)):
                us, vs = u[c][s], v[c][s]
                cat = 0.0
                for i in range(n):
                    cat += pi[i] * us[i] * vs[i]
                site += cw[c] * cat
            if site <= 0.0:
                raise FloatingPointError(
                    "non-positive site likelihood (underflow?)"
                )
            total += float(pattern_weights[s]) * (
                math.log(site) - int(scale_counts[s]) * LOG_SCALE_FACTOR
            )
        return total

    # -- makenewz ------------------------------------------------------------

    def branch_derivatives(self, model_terms, pi, cat_weights,
                           pattern_weights, u_clv, v_clv, scale_counts
                           ) -> Tuple[float, float, float]:
        self.kernel_calls += 1
        p, dp, d2p = (np.asarray(part).tolist() for part in model_terms)
        u = np.asarray(u_clv).tolist()
        v = np.asarray(v_clv).tolist()
        pi = [float(x) for x in pi]
        cw = [float(x) for x in cat_weights]
        n_patterns = len(u[0])
        n = len(pi)
        index = self._matrix_index(len(p), len(cw), n_patterns)
        lnl = dlnl = d2lnl = 0.0
        for s in range(n_patterns):
            lik = d1 = d2 = 0.0
            for c in range(len(cw)):
                m = index(s, c)
                mat, dmat, d2mat = p[m], dp[m], d2p[m]
                us, vs = u[c][s], v[c][s]
                f = f1 = f2 = 0.0
                for i in range(n):
                    left = us[i] * pi[i]
                    row, drow, d2row = mat[i], dmat[i], d2mat[i]
                    for j in range(n):
                        vj = vs[j]
                        f += left * row[j] * vj
                        f1 += left * drow[j] * vj
                        f2 += left * d2row[j] * vj
                lik += cw[c] * f
                d1 += cw[c] * f1
                d2 += cw[c] * f2
            if lik <= 0.0:
                raise FloatingPointError(
                    "non-positive site likelihood in makenewz"
                )
            g1 = d1 / lik
            w = float(pattern_weights[s])
            lnl += w * (
                math.log(lik) - int(scale_counts[s]) * LOG_SCALE_FACTOR
            )
            dlnl += w * g1
            d2lnl += w * (d2 / lik - g1 * g1)
        return lnl, dlnl, d2lnl

    # -- instrumentation -----------------------------------------------------

    def perf_counters(self) -> Dict[str, int]:
        return {
            "backend_kernel_calls": self.kernel_calls,
            "backend_warmup_us": 0,
        }
