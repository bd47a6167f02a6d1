"""C flavor of the compiled kernel backend: built on demand with the
host C compiler, loaded through :mod:`ctypes`.

This is the fallback flavor of the ``compiled`` backend for hosts
without numba (the primary flavor, :mod:`._compiled_numba`).  The
likelihood hot loops — tip/inner propagation, combine, the underflow
rescale check, evaluate and the makenewz derivative bodies — are one
self-contained C translation unit compiled once per source hash with
``cc -O3 -fPIC -shared`` into a per-user cache directory
(``REPRO_KERNEL_CACHE`` or ``~/.cache/repro-kernels``) and loaded via
ctypes, whose foreign calls release the GIL: the partitioned
dispatcher's stripe threads genuinely overlap inside these kernels,
which is the whole point of the backend.

Numerical contract (mirrors :mod:`repro.phylo.kernels` exactly):

* ``scale_clv`` reproduces the einsum kernel's semantics bit for bit:
  NaN anywhere in a pattern row (or a ``+inf`` row maximum) is a
  detected fault *before* any row is rescaled; rescaling multiplies by
  the exact power of two ``2**256``, so scaled rows are bit-identical
  to the einsum backend's.
* The reduction kernels (evaluate / derivatives) fill **per-block
  partial sums** — fixed ``block``-pattern reduction blocks whose
  within-block accumulation order never depends on stripe or thread
  count.  The dispatcher pairwise-sums the blocks in fixed order, so
  ``compiled:1/2/4`` report bit-identical log likelihoods.
* Faults are returned as a negative status ``-(pattern+1)`` and raised
  by the Python wrappers as the same :class:`FloatingPointError` family
  the einsum kernels use, so the engine's degradation ladder cannot
  tell the flavors apart.

Every load runs a small self-check against the einsum kernels (1e-12)
before the flavor is declared usable; the wall time of build + load +
self-check is surfaced as ``warmup_us``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from typing import Callable, Optional, Tuple

import numpy as np

from ... import kernels
from ...dna import TIP_PARTIAL_ROWS

__all__ = [
    "CcKernels",
    "CompiledKernelsError",
    "cache_dir",
    "find_compiler",
    "run_self_check",
]


class CompiledKernelsError(RuntimeError):
    """The C flavor could not be built, loaded, or self-checked."""


#: Environment override for the shared-library cache directory.
CACHE_ENV_VAR = "REPRO_KERNEL_CACHE"

C_SOURCE = r"""
#include <math.h>
#include <stdlib.h>
#include <string.h>

typedef long long i64;

/* RAxML's rescaling constants: exact powers of two (kernels.py). */
#define SCALE_THRESHOLD 0x1p-256
#define SCALE_FACTOR    0x1p+256

/* Transition stacks arrive as pt = P^T, C-ordered (pt[c][j][i] =
 * P[c][i][j]): the layout the engine's P-matrix cache stores, read
 * here with swapped indices instead of being copied per call.
 *
 * Tip propagation, integrated mode (tipVector trick): the product is
 * computed once per ambiguity code, then gathered per pattern.
 *   pt: (c,n,n)  table: (m,n)  masks: (S,)  out: (S,c,n), rows [s0,s1) */
void rk_tip_terms(const double *pt, const double *table, const i64 *masks,
                  double *out, i64 s0, i64 s1, i64 c, i64 n, i64 m)
{
    double *per_code = (double *)malloc((size_t)(m * c * n) * sizeof(double));
    for (i64 code = 0; code < m; code++) {
        const double *trow = table + code * n;
        for (i64 cc = 0; cc < c; cc++)
            for (i64 i = 0; i < n; i++) {
                const double *pcol = pt + cc * n * n + i;
                double acc = 0.0;
                for (i64 j = 0; j < n; j++)
                    acc += pcol[j * n] * trow[j];
                per_code[(code * c + cc) * n + i] = acc;
            }
    }
    for (i64 s = s0; s < s1; s++)
        memcpy(out + s * c * n, per_code + masks[s] * c * n,
               (size_t)(c * n) * sizeof(double));
    free(per_code);
}

/* Tip propagation, CAT mode: per-pattern matrices.
 *   pt: (S,n,n)  out: (S,1,n) */
void rk_tip_terms_ps(const double *pt, const double *table, const i64 *masks,
                     double *out, i64 s0, i64 s1, i64 n)
{
    for (i64 s = s0; s < s1; s++) {
        const double *pm = pt + s * n * n;
        const double *trow = table + masks[s] * n;
        double *orow = out + s * n;
        for (i64 i = 0; i < n; i++) {
            double acc = 0.0;
            for (i64 j = 0; j < n; j++)
                acc += pm[j * n + i] * trow[j];
            orow[i] = acc;
        }
    }
}

/* Inner propagation: pt is (c,n,n) (integrated) or (S,n,n) (per_site).
 *   clv/out: (S,c,n), rows [s0,s1) */
void rk_inner_terms(const double *pt, const double *clv, double *out,
                    i64 s0, i64 s1, i64 c, i64 n, i64 per_site)
{
    for (i64 s = s0; s < s1; s++)
        for (i64 cc = 0; cc < c; cc++) {
            const double *pm = per_site ? pt + s * n * n : pt + cc * n * n;
            const double *crow = clv + (s * c + cc) * n;
            double *orow = out + (s * c + cc) * n;
            for (i64 i = 0; i < n; i++) {
                double acc = 0.0;
                for (i64 j = 0; j < n; j++)
                    acc += pm[j * n + i] * crow[j];
                orow[i] = acc;
            }
        }
}

/* Elementwise combine over the flat element range [e0,e1). */
void rk_combine(const double *left, const double *right, double *out,
                i64 e0, i64 e1)
{
    for (i64 e = e0; e < e1; e++)
        out[e] = left[e] * right[e];
}

/* Underflow rescale over pattern rows [s0,s1); cn = cats*states.
 * Returns the number of rescaled rows, or -(s+1) for a non-finite row.
 * Two passes match numpy: no row is rescaled when any row is bad. */
i64 rk_scale_clv(double *clv, i64 *counts, i64 s0, i64 s1, i64 cn)
{
    for (i64 s = s0; s < s1; s++) {
        const double *row = clv + s * cn;
        double mx = 0.0;
        for (i64 k = 0; k < cn; k++) {
            double v = row[k];
            if (isnan(v)) return -(s + 1);
            if (v > mx) mx = v;
        }
        if (isinf(mx)) return -(s + 1);
    }
    i64 total = 0;
    for (i64 s = s0; s < s1; s++) {
        double *row = clv + s * cn;
        double mx = 0.0;
        for (i64 k = 0; k < cn; k++)
            if (row[k] > mx) mx = row[k];
        if (mx < SCALE_THRESHOLD) {
            for (i64 k = 0; k < cn; k++)
                row[k] *= SCALE_FACTOR;
            counts[s]++;
            total++;
        }
    }
    return total;
}

/* Weighted log likelihood, per reduction block.  u/v carry explicit
 * element strides for their pattern/category axes (the state axis must
 * be unit stride) so broadcast tip CLVs need no materialisation.
 * partials[b] gets the block-[b*block, min((b+1)*block, S)) sum.
 * Returns 0 or -(s+1) on a non-positive site likelihood. */
i64 rk_evaluate(const double *pi, const double *cw, const double *pw,
                const double *u, i64 us, i64 uc,
                const double *v, i64 vs, i64 vc,
                const i64 *sc, double lsf,
                i64 b0, i64 b1, i64 block, i64 S, i64 c, i64 n,
                double *partials)
{
    for (i64 b = b0; b < b1; b++) {
        i64 lo = b * block;
        i64 hi = lo + block < S ? lo + block : S;
        double acc = 0.0;
        for (i64 s = lo; s < hi; s++) {
            double site = 0.0;
            for (i64 cc = 0; cc < c; cc++) {
                const double *up = u + s * us + cc * uc;
                const double *vp = v + s * vs + cc * vc;
                double dot = 0.0;
                for (i64 i = 0; i < n; i++)
                    dot += up[i] * vp[i] * pi[i];
                site += cw[cc] * dot;
            }
            if (!(site > 0.0)) return -(s + 1);
            acc += pw[s] * (log(site) - (double)sc[s] * lsf);
        }
        partials[b] = acc;
    }
    return 0;
}

/* makenewz body: lnL and its first two branch-length derivatives,
 * per reduction block.  p/dp/d2p are (c,n,n) (integrated) or (S,n,n)
 * with c == 1 (per_site).  partials: (nb,3) at partials[b*3 + t]. */
i64 rk_deriv(const double *p, const double *dp, const double *d2p,
             const double *pi, const double *cw, const double *pw,
             const double *u, i64 us, i64 uc,
             const double *v, i64 vs, i64 vc,
             const i64 *sc, double lsf,
             i64 b0, i64 b1, i64 block, i64 S, i64 c, i64 n,
             i64 per_site, double *partials)
{
    for (i64 b = b0; b < b1; b++) {
        i64 lo = b * block;
        i64 hi = lo + block < S ? lo + block : S;
        double al = 0.0, ad = 0.0, a2 = 0.0;
        for (i64 s = lo; s < hi; s++) {
            double lik = 0.0, d1 = 0.0, d2 = 0.0;
            for (i64 cc = 0; cc < c; cc++) {
                i64 base = per_site ? s * n * n : cc * n * n;
                const double *pm = p + base;
                const double *dpm = dp + base;
                const double *d2pm = d2p + base;
                const double *up = u + s * us + cc * uc;
                const double *vp = v + s * vs + cc * vc;
                double f = 0.0, f1 = 0.0, f2 = 0.0;
                for (i64 i = 0; i < n; i++) {
                    double li = up[i] * pi[i];
                    double t0 = 0.0, t1 = 0.0, t2 = 0.0;
                    for (i64 j = 0; j < n; j++) {
                        double vj = vp[j];
                        t0 += pm[i * n + j] * vj;
                        t1 += dpm[i * n + j] * vj;
                        t2 += d2pm[i * n + j] * vj;
                    }
                    f += li * t0;
                    f1 += li * t1;
                    f2 += li * t2;
                }
                lik += cw[cc] * f;
                d1 += cw[cc] * f1;
                d2 += cw[cc] * f2;
            }
            if (!(lik > 0.0)) return -(s + 1);
            double g1 = d1 / lik;
            al += pw[s] * (log(lik) - (double)sc[s] * lsf);
            ad += pw[s] * g1;
            a2 += pw[s] * (d2 / lik - g1 * g1);
        }
        partials[b * 3 + 0] = al;
        partials[b * 3 + 1] = ad;
        partials[b * 3 + 2] = a2;
    }
    return 0;
}

"""

#: Base compile flags.  Deliberately *no* -ffast-math: the NaN/Inf
#: fault detection in rk_scale_clv and the exact power-of-two rescale
#: depend on strict IEEE semantics.
CFLAGS = ("-O3", "-fPIC", "-shared")

_VOID = None
_I64 = ctypes.c_longlong
_F64 = ctypes.c_double
_PTR = ctypes.c_void_p

#: name -> (restype, argtypes); p* = pointer, i = i64, d = double.
_SIGNATURES = {
    "rk_tip_terms": (_VOID, [_PTR] * 4 + [_I64] * 5),
    "rk_tip_terms_ps": (_VOID, [_PTR] * 4 + [_I64] * 3),
    "rk_inner_terms": (_VOID, [_PTR] * 3 + [_I64] * 5),
    "rk_combine": (_VOID, [_PTR] * 3 + [_I64] * 2),
    "rk_scale_clv": (_I64, [_PTR] * 2 + [_I64] * 3),
    "rk_evaluate": (
        _I64,
        [_PTR] * 3 + [_PTR, _I64, _I64] + [_PTR, _I64, _I64]
        + [_PTR, _F64] + [_I64] * 6 + [_PTR],
    ),
    "rk_deriv": (
        _I64,
        [_PTR] * 6 + [_PTR, _I64, _I64] + [_PTR, _I64, _I64]
        + [_PTR, _F64] + [_I64] * 7 + [_PTR],
    ),
}


def cache_dir() -> str:
    """Where compiled shared libraries live (created on demand)."""
    path = os.environ.get(CACHE_ENV_VAR, "").strip()
    if not path:
        path = os.path.join(
            os.path.expanduser("~"), ".cache", "repro-kernels"
        )
    os.makedirs(path, exist_ok=True)
    return path


def find_compiler() -> Optional[str]:
    """The host C compiler: ``$CC`` if set, else cc/gcc/clang on PATH."""
    env = os.environ.get("CC", "").strip()
    if env:
        return env if shutil.which(env) else None
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def build_library() -> str:
    """Compile (or reuse) the kernel shared library; returns its path.

    The library file is keyed by a hash of source + flags, so upgrades
    of this module never load a stale binary, and the build is atomic
    (compile to a temp file, then ``os.replace``) so concurrent
    processes cannot observe a half-written library.
    """
    key = hashlib.sha256(
        (C_SOURCE + "\x00" + " ".join(CFLAGS)).encode()
    ).hexdigest()[:16]
    directory = cache_dir()
    lib_path = os.path.join(directory, f"repro_kernels_{key}.so")
    if os.path.exists(lib_path):
        return lib_path
    compiler = find_compiler()
    if compiler is None:
        raise CompiledKernelsError(
            "no C compiler found (checked $CC, cc, gcc, clang)"
        )
    fd, src_path = tempfile.mkstemp(suffix=".c", dir=directory)
    tmp_lib = src_path[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(C_SOURCE)
        cmd = [compiler, *CFLAGS, "-o", tmp_lib, src_path, "-lm"]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise CompiledKernelsError(
                f"kernel compilation failed ({' '.join(cmd)}):\n"
                f"{proc.stderr.strip()}"
            )
        os.replace(tmp_lib, lib_path)
    finally:
        for leftover in (src_path, tmp_lib):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    return lib_path


def _as_f64(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    return a if a.flags.c_contiguous else np.ascontiguousarray(a)


def _as_i64(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    return a if a.flags.c_contiguous else np.ascontiguousarray(a)


def _strided(a: np.ndarray) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """*a* with unit stride on its last axis, plus the element strides
    of every leading axis — zero strides (broadcast axes) pass through
    untouched, so broadcast tip CLVs cost nothing."""
    a = np.asarray(a, dtype=np.float64)
    if a.strides[-1] != a.itemsize:
        a = np.ascontiguousarray(a)
    return a, tuple(s // a.itemsize for s in a.strides[:-1])


def _out_ok(out: np.ndarray) -> np.ndarray:
    if not (out.flags.c_contiguous and out.dtype == np.float64):
        raise ValueError(
            "compiled kernels require a C-contiguous float64 output buffer"
        )
    return out


class CcKernels:
    """The striped-kernels interface backed by the on-demand C library.

    Every method is a *call builder*: arguments are validated and
    converted once per kernel call, and the returned closure — invoked
    per stripe/block-range by the partitioned dispatcher, possibly from
    several pool threads at once — performs a single GIL-releasing
    foreign call.
    """

    flavor = "cc"

    def __init__(self) -> None:
        started = time.perf_counter()
        path = build_library()
        lib = ctypes.CDLL(path)
        for fname, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, fname)
            fn.restype = restype
            fn.argtypes = argtypes
        self._lib = lib
        self.library_path = path
        self._self_check()
        self._warmup_us = int((time.perf_counter() - started) * 1e6)

    def warmup_us(self) -> int:
        return self._warmup_us

    # -- elementwise kernels (pattern-range tasks) ---------------------------

    def tip_terms(self, p, masks, code_table, out, per_site):
        table = _as_f64(
            TIP_PARTIAL_ROWS if code_table is None else code_table
        )
        p = _as_f64(p.transpose(0, 2, 1))  # no copy off the P cache
        masks = _as_i64(masks)
        out = _out_ok(out)
        n = p.shape[-1]
        if per_site:
            fn = self._lib.rk_tip_terms_ps
            args = (p.ctypes.data, table.ctypes.data, masks.ctypes.data,
                    out.ctypes.data)

            def task(start, stop, _args=args):
                fn(*_args, start, stop, n)
        else:
            c = p.shape[0]
            m = table.shape[0]
            fn = self._lib.rk_tip_terms
            args = (p.ctypes.data, table.ctypes.data, masks.ctypes.data,
                    out.ctypes.data)

            def task(start, stop, _args=args):
                fn(*_args, start, stop, c, n, m)
        task.refs = (p, table, masks, out)
        return task

    def inner_terms(self, p, clv, out, per_site):
        p = _as_f64(p.transpose(0, 2, 1))  # no copy off the P cache
        clv = _as_f64(clv)
        out = _out_ok(out)
        c, n = clv.shape[1], clv.shape[2]
        fn = self._lib.rk_inner_terms
        args = (p.ctypes.data, clv.ctypes.data, out.ctypes.data)
        flag = 1 if per_site else 0

        def task(start, stop, _args=args):
            fn(*_args, start, stop, c, n, flag)
        task.refs = (p, clv, out)
        return task

    def newview_combine(self, left, right, out):
        left = _as_f64(left)
        right = _as_f64(right)
        out = _out_ok(out)
        row = int(np.prod(out.shape[1:]))
        fn = self._lib.rk_combine
        args = (left.ctypes.data, right.ctypes.data, out.ctypes.data)

        def task(start, stop, _args=args):
            fn(*_args, start * row, stop * row)
        task.refs = (left, right, out)
        return task

    def scale_clv(self, clv, scale_counts):
        if not (clv.flags.c_contiguous and clv.dtype == np.float64):
            raise ValueError("scale_clv requires a contiguous float64 CLV")
        counts = scale_counts
        if not (counts.flags.c_contiguous and counts.dtype == np.int64):
            raise ValueError("scale_clv requires contiguous int64 counts")
        row = int(np.prod(clv.shape[1:]))
        fn = self._lib.rk_scale_clv
        args = (clv.ctypes.data, counts.ctypes.data)

        def task(start, stop, _args=args):
            status = fn(*_args, start, stop, row)
            if status < 0:
                raise FloatingPointError(
                    f"non-finite CLV entries at pattern {-status - 1} "
                    f"(NaN/Inf reached the underflow-rescaling check)"
                )
            return int(status)
        task.refs = (clv, counts)
        return task

    # -- reduction kernels (block-range tasks filling per-block partials) ----

    def evaluate(self, pi, cat_weights, pattern_weights, u, v,
                 scale_counts, block, partials):
        pi = _as_f64(pi)
        cw = _as_f64(cat_weights)
        pw = _as_f64(pattern_weights)
        u, (us, uc) = _strided(u)
        v, (vs, vc) = _strided(v)
        sc = _as_i64(scale_counts)
        total, c, n = sc.shape[0], u.shape[1], u.shape[2]
        fn = self._lib.rk_evaluate
        args = (pi.ctypes.data, cw.ctypes.data, pw.ctypes.data,
                u.ctypes.data, us, uc, v.ctypes.data, vs, vc,
                sc.ctypes.data, kernels.LOG_SCALE_FACTOR)

        def task(b0, b1, _args=args):
            status = fn(*_args, b0, b1, block, total, c, n,
                        partials.ctypes.data)
            if status < 0:
                raise FloatingPointError(
                    "non-positive site likelihood (underflow?)"
                )
        task.refs = (pi, cw, pw, u, v, sc, partials)
        return task

    def derivatives(self, model_terms, pi, cat_weights, pattern_weights,
                    u, v, scale_counts, block, partials, per_site):
        p, dp, d2p = (_as_f64(t) for t in model_terms)
        pi = _as_f64(pi)
        cw = _as_f64(cat_weights)
        pw = _as_f64(pattern_weights)
        u, (us, uc) = _strided(u)
        v, (vs, vc) = _strided(v)
        sc = _as_i64(scale_counts)
        total, c, n = sc.shape[0], u.shape[1], u.shape[2]
        fn = self._lib.rk_deriv
        flag = 1 if per_site else 0
        args = (p.ctypes.data, dp.ctypes.data, d2p.ctypes.data,
                pi.ctypes.data, cw.ctypes.data, pw.ctypes.data,
                u.ctypes.data, us, uc, v.ctypes.data, vs, vc,
                sc.ctypes.data, kernels.LOG_SCALE_FACTOR)

        def task(b0, b1, _args=args):
            status = fn(*_args, b0, b1, block, total, c, n, flag,
                        partials.ctypes.data)
            if status < 0:
                raise FloatingPointError(
                    "non-positive site likelihood in makenewz"
                )
        task.refs = (p, dp, d2p, pi, cw, pw, u, v, sc, partials)
        return task

    # -- load-time self-check ------------------------------------------------

    def _self_check(self) -> None:
        run_self_check(self)


def run_self_check(flavor) -> None:
    """Diff every kernel of *flavor* (any striped-kernels implementation)
    against the einsum kernels on a tiny instance; a flavor that cannot
    reproduce the reference math to 1e-12 must never be selected.
    Shared by the cc and numba flavors — running it is also what
    triggers numba's JIT compilation, so warmup timing wraps it."""
    rng = np.random.default_rng(0xCC)
    s_count, c, n = 7, 3, 4
    try:
        p = rng.uniform(0.05, 1.0, (c, n, n))
        masks = rng.integers(1, 15, s_count)
        expect = kernels.tip_terms(p, masks, None)
        got = np.empty(expect.shape)
        flavor.tip_terms(p, masks, None, got, False)(0, s_count)
        _check("tip_terms", got, expect)

        pps = rng.uniform(0.05, 1.0, (s_count, n, n))
        expect = kernels.tip_terms_persite(pps, masks, None)
        got = np.empty(expect.shape)
        flavor.tip_terms(pps, masks, None, got, True)(0, s_count)
        _check("tip_terms_persite", got, expect)

        clv = rng.uniform(0.1, 1.0, (s_count, c, n))
        expect = kernels.inner_terms(p, clv)
        got = np.empty(expect.shape)
        flavor.inner_terms(p, clv, got, False)(0, s_count)
        _check("inner_terms", got, expect)

        left = rng.uniform(0.1, 1.0, (s_count, c, n))
        right = rng.uniform(0.1, 1.0, (s_count, c, n))
        got = np.empty_like(left)
        flavor.newview_combine(left, right, got)(0, s_count)
        _check("newview_combine", got, left * right)

        scaled = rng.uniform(0.1, 1.0, (s_count, c, n))
        scaled[2] *= 2.0 ** -300
        twin = scaled.copy()
        counts = np.zeros(s_count, dtype=np.int64)
        twin_counts = counts.copy()
        n_scaled = flavor.scale_clv(scaled, counts)(0, s_count)
        expect_scaled = kernels.scale_clv(twin, twin_counts)
        if (n_scaled != expect_scaled
                or not np.array_equal(scaled, twin)
                or not np.array_equal(counts, twin_counts)):
            raise CompiledKernelsError(
                "self-check failed: scale_clv diverged from the "
                "einsum kernel"
            )
        poisoned = rng.uniform(0.1, 1.0, (s_count, c, n))
        poisoned[4, 1, 2] = np.nan
        try:
            flavor.scale_clv(poisoned, counts.copy())(0, s_count)
        except FloatingPointError:
            pass
        else:
            raise CompiledKernelsError(
                "self-check failed: scale_clv missed a NaN CLV"
            )

        pi = rng.uniform(0.1, 0.4, n)
        pi /= pi.sum()
        cw = np.full(c, 1.0 / c)
        pw = rng.uniform(1.0, 4.0, s_count)
        u = rng.uniform(0.1, 1.0, (s_count, c, n))
        v = rng.uniform(0.1, 1.0, (s_count, c, n))
        sc = rng.integers(0, 3, s_count).astype(np.int64)
        expect = kernels.evaluate_loglik(pi, cw, pw, u, v, sc)
        partials = np.empty(1)
        flavor.evaluate(pi, cw, pw, u, v, sc, s_count, partials)(0, 1)
        _check("evaluate", partials[0], expect)

        dp = rng.normal(0.0, 0.1, (c, n, n))
        d2p = rng.normal(0.0, 0.1, (c, n, n))
        expect = kernels.branch_derivatives(
            (p, dp, d2p), pi, cw, pw, u, v, sc
        )
        partials = np.empty((1, 3))
        flavor.derivatives(
            (p, dp, d2p), pi, cw, pw, u, v, sc, s_count, partials, False
        )(0, 1)
        _check("derivatives", partials[0], np.asarray(expect))

        ones = np.ones(1)
        ups = rng.uniform(0.1, 1.0, (s_count, 1, n))
        vps = rng.uniform(0.1, 1.0, (s_count, 1, n))
        dps = rng.normal(0.0, 0.1, (s_count, n, n))
        d2ps = rng.normal(0.0, 0.1, (s_count, n, n))
        expect = kernels.branch_derivatives_persite(
            (pps, dps, d2ps), pi, pw, ups, vps, sc
        )
        partials = np.empty((1, 3))
        flavor.derivatives(
            (pps, dps, d2ps), pi, ones, pw, ups, vps, sc, s_count,
            partials, True,
        )(0, 1)
        _check("derivatives_persite", partials[0], np.asarray(expect))
    except (CompiledKernelsError, MemoryError):
        raise
    except Exception as exc:  # wrap anything unexpected with context
        raise CompiledKernelsError(
            f"self-check crashed in the {flavor.flavor!r} flavor: {exc}"
        ) from exc


def _check(label: str, got, expect, tol: float = 1e-12) -> None:
    got = np.asarray(got, dtype=np.float64)
    expect = np.asarray(expect, dtype=np.float64)
    scale = max(float(np.abs(expect).max()), 1.0)
    err = float(np.abs(got - expect).max()) / scale
    if not np.isfinite(err) or err > tol:
        raise CompiledKernelsError(
            f"self-check failed: {label} diverged from the einsum kernel "
            f"by {err:.3e} (> {tol:g})"
        )
