"""Numba flavor of the compiled kernel backend.

The primary flavor when numba is importable (CI's dedicated matrix leg;
``pip install repro[compiled]``): the same likelihood hot loops as the
cc flavor, expressed as ``@njit(nogil=True, cache=True)`` functions.
``nogil=True`` is the load-bearing option — stripe threads of the
partitioned dispatcher run these bodies concurrently — and
``cache=True`` persists the compiled machine code across processes so
warmup is paid once per environment, not once per run.

Importing this module without numba raises :class:`ImportError`; the
flavor selector in :mod:`.compiled` treats that as "flavor absent" and
falls back to the cc flavor (or reports the backend unavailable).

Numerical semantics are identical to :mod:`._compiled_cc` — per-block
reduction partials, exact power-of-two rescaling, negative status codes
for non-finite/non-positive faults — and every load is verified by the
shared :func:`~._compiled_cc.run_self_check` before use.
"""

from __future__ import annotations

import numpy as np
from numba import njit

from ... import kernels
from ...dna import TIP_PARTIAL_ROWS

__all__ = ["NumbaKernels"]

_JIT = dict(nogil=True, cache=True)

#: Exact rescaling constants (powers of two; see kernels.py).
_THRESHOLD = kernels.SCALE_THRESHOLD
_FACTOR = kernels.SCALE_FACTOR


# Transition stacks arrive as pt = P^T, C-ordered (pt[c, j, i] =
# P[c, i, j]): the layout the engine's P-matrix cache stores, read here
# with swapped indices instead of being copied per call.


@njit(**_JIT)
def _nb_tip_terms(pt, table, masks, out, s0, s1):
    c, n = pt.shape[0], pt.shape[2]
    m = table.shape[0]
    per_code = np.empty((m, c, n))
    for code in range(m):
        for cc in range(c):
            for i in range(n):
                acc = 0.0
                for j in range(n):
                    acc += pt[cc, j, i] * table[code, j]
                per_code[code, cc, i] = acc
    for s in range(s0, s1):
        out[s] = per_code[masks[s]]


@njit(**_JIT)
def _nb_tip_terms_ps(pt, table, masks, out, s0, s1):
    n = pt.shape[2]
    for s in range(s0, s1):
        code = masks[s]
        for i in range(n):
            acc = 0.0
            for j in range(n):
                acc += pt[s, j, i] * table[code, j]
            out[s, 0, i] = acc


@njit(**_JIT)
def _nb_inner_terms(pt, clv, out, s0, s1, per_site):
    c, n = clv.shape[1], clv.shape[2]
    for s in range(s0, s1):
        for cc in range(c):
            pidx = s if per_site else cc
            for i in range(n):
                acc = 0.0
                for j in range(n):
                    acc += pt[pidx, j, i] * clv[s, cc, j]
                out[s, cc, i] = acc


@njit(**_JIT)
def _nb_combine(left, right, out, e0, e1):
    for e in range(e0, e1):
        out[e] = left[e] * right[e]


@njit(**_JIT)
def _nb_scale_clv(clv, counts, s0, s1):
    cn = clv.shape[1]
    # Pass 1: detect non-finite rows before anything is rescaled
    # (matches the einsum kernel, which raises before mutating).
    for s in range(s0, s1):
        mx = 0.0
        for k in range(cn):
            v = clv[s, k]
            if np.isnan(v):
                return -(s + 1)
            if v > mx:
                mx = v
        if np.isinf(mx):
            return -(s + 1)
    total = 0
    for s in range(s0, s1):
        mx = 0.0
        for k in range(cn):
            if clv[s, k] > mx:
                mx = clv[s, k]
        if mx < _THRESHOLD:
            for k in range(cn):
                clv[s, k] *= _FACTOR
            counts[s] += 1
            total += 1
    return total


@njit(**_JIT)
def _nb_evaluate(pi, cw, pw, u, v, sc, lsf, b0, b1, block, partials):
    total, c, n = u.shape[0], u.shape[1], u.shape[2]
    for b in range(b0, b1):
        lo = b * block
        hi = min(lo + block, total)
        acc = 0.0
        for s in range(lo, hi):
            site = 0.0
            for cc in range(c):
                dot = 0.0
                for i in range(n):
                    dot += u[s, cc, i] * v[s, cc, i] * pi[i]
                site += cw[cc] * dot
            if not site > 0.0:
                return -(s + 1)
            acc += pw[s] * (np.log(site) - sc[s] * lsf)
        partials[b] = acc
    return 0


@njit(**_JIT)
def _nb_deriv(p, dp, d2p, pi, cw, pw, u, v, sc, lsf,
              b0, b1, block, per_site, partials):
    total, c, n = u.shape[0], u.shape[1], u.shape[2]
    for b in range(b0, b1):
        lo = b * block
        hi = min(lo + block, total)
        al = 0.0
        ad = 0.0
        a2 = 0.0
        for s in range(lo, hi):
            lik = 0.0
            d1 = 0.0
            d2 = 0.0
            for cc in range(c):
                pidx = s if per_site else cc
                f = 0.0
                f1 = 0.0
                f2 = 0.0
                for i in range(n):
                    li = u[s, cc, i] * pi[i]
                    t0 = 0.0
                    t1 = 0.0
                    t2 = 0.0
                    for j in range(n):
                        vj = v[s, cc, j]
                        t0 += p[pidx, i, j] * vj
                        t1 += dp[pidx, i, j] * vj
                        t2 += d2p[pidx, i, j] * vj
                    f += li * t0
                    f1 += li * t1
                    f2 += li * t2
                lik += cw[cc] * f
                d1 += cw[cc] * f1
                d2 += cw[cc] * f2
            if not lik > 0.0:
                return -(s + 1)
            g1 = d1 / lik
            al += pw[s] * (np.log(lik) - sc[s] * lsf)
            ad += pw[s] * g1
            a2 += pw[s] * (d2 / lik - g1 * g1)
        partials[b, 0] = al
        partials[b, 1] = ad
        partials[b, 2] = a2
    return 0


def _as_f64(a):
    a = np.asarray(a, dtype=np.float64)
    return a if a.flags.c_contiguous else np.ascontiguousarray(a)


def _as_i64(a):
    a = np.asarray(a, dtype=np.int64)
    return a if a.flags.c_contiguous else np.ascontiguousarray(a)


def _dense(a):
    """Materialise broadcast/strided views: numba's typed loops want
    plain owned arrays, and copies here are off the per-stripe hot path
    (once per kernel call, shared by every stripe)."""
    a = np.asarray(a, dtype=np.float64)
    if a.flags.c_contiguous:
        return a
    return np.ascontiguousarray(a)


class NumbaKernels:
    """The striped-kernels interface backed by njit(nogil) kernels.

    Same call-builder shape as :class:`~._compiled_cc.CcKernels`:
    each method validates and converts once, returning a closure the
    partitioned dispatcher invokes per stripe or block range from its
    pool threads (the njit bodies release the GIL).
    """

    flavor = "numba"

    def __init__(self) -> None:
        self._warmup_us = 0

    def warmup_us(self) -> int:
        return self._warmup_us

    # -- elementwise kernels -------------------------------------------------

    def tip_terms(self, p, masks, code_table, out, per_site):
        table = _as_f64(
            TIP_PARTIAL_ROWS if code_table is None else code_table
        )
        p = _as_f64(p.transpose(0, 2, 1))  # no copy off the P cache
        masks = _as_i64(masks)
        if per_site:
            def task(start, stop):
                _nb_tip_terms_ps(p, table, masks, out, start, stop)
        else:
            def task(start, stop):
                _nb_tip_terms(p, table, masks, out, start, stop)
        return task

    def inner_terms(self, p, clv, out, per_site):
        p = _as_f64(p.transpose(0, 2, 1))  # no copy off the P cache
        clv = _as_f64(clv)
        flag = bool(per_site)

        def task(start, stop):
            _nb_inner_terms(p, clv, out, start, stop, flag)
        return task

    def newview_combine(self, left, right, out):
        left = _dense(left).reshape(-1)
        right = _dense(right).reshape(-1)
        flat = out.reshape(-1)
        row = int(np.prod(out.shape[1:]))

        def task(start, stop):
            _nb_combine(left, right, flat, start * row, stop * row)
        return task

    def scale_clv(self, clv, scale_counts):
        flat = clv.reshape(clv.shape[0], -1)

        def task(start, stop):
            status = _nb_scale_clv(flat, scale_counts, start, stop)
            if status < 0:
                raise FloatingPointError(
                    f"non-finite CLV entries at pattern {-status - 1} "
                    f"(NaN/Inf reached the underflow-rescaling check)"
                )
            return int(status)
        return task

    # -- reduction kernels ---------------------------------------------------

    def evaluate(self, pi, cat_weights, pattern_weights, u, v,
                 scale_counts, block, partials):
        pi = _as_f64(pi)
        cw = _as_f64(cat_weights)
        pw = _as_f64(pattern_weights)
        u = _dense(u)
        v = _dense(v)
        sc = _as_i64(scale_counts)
        lsf = kernels.LOG_SCALE_FACTOR

        def task(b0, b1):
            status = _nb_evaluate(
                pi, cw, pw, u, v, sc, lsf, b0, b1, block, partials
            )
            if status < 0:
                raise FloatingPointError(
                    "non-positive site likelihood (underflow?)"
                )
        return task

    def derivatives(self, model_terms, pi, cat_weights, pattern_weights,
                    u, v, scale_counts, block, partials, per_site):
        p, dp, d2p = (_as_f64(t) for t in model_terms)
        pi = _as_f64(pi)
        cw = _as_f64(cat_weights)
        pw = _as_f64(pattern_weights)
        u = _dense(u)
        v = _dense(v)
        sc = _as_i64(scale_counts)
        lsf = kernels.LOG_SCALE_FACTOR
        flag = bool(per_site)

        def task(b0, b1):
            status = _nb_deriv(
                p, dp, d2p, pi, cw, pw, u, v, sc, lsf,
                b0, b1, block, flag, partials,
            )
            if status < 0:
                raise FloatingPointError(
                    "non-positive site likelihood in makenewz"
                )
        return task
