"""Numpy likelihood-kernel throughput at the paper's working size.

These benchmark the *real* compute kernels on a 42_SC-shaped working
set (~240 patterns x 4 Gamma categories), i.e. the loops that the
paper's SPE port vectorizes: ``newview`` (large + small loop, kernel
by kernel and as the one fused call the engine makes), ``evaluate`` and
``makenewz`` (the once-per-branch sumtable, one Newton
iteration on it, and — for comparison — the explicit ``(P, dP, d2P)``
iteration it replaced).  The reported per-call times are this machine's
equivalents of the paper's 71 us average ``newview()`` invocation.

The ``makenewz`` probe rows (:func:`probe_rows`: the prepared probe on
a one-row stack, full and lnL-only, at ``search_sc``'s 207 patterns and
at 600, Gamma-4 and CAT, and a whole Newton solve) are also recorded,
with the host's ``cpu_count``, into the ``makenewz_probe`` section of
``BENCH_engine.json``; a ``parent_rows_us`` column already there (the
same rows recorded on a parent commit) is carried forward.  Recording
only — no speed-up bar::

    PYTHONPATH=src python benchmarks/bench_kernels.py

The ``operand_layout`` section (:func:`layout_rows`, DESIGN 7.5) times
what the engine itself hands its kernels — a P stack off the P-matrix
cache, CLVs out of the arena, the engine's own sumtable and prepared
probe — at 207 / 732 / 1,277 patterns: one inner propagation, the three
``newview`` cases, the sumtable build (inner/inner, tip/inner), one
probe evaluation (full, lnL-only) and a whole ``makenewz``.  Its rows
go only through engine calls, so the same file records a parent's
column from a clone of it that has those calls (kept beside ``rows_us``
as ``parent_rows_us``; a plain run carries it forward)::

    PYTHONPATH=<parent clone>/src python benchmarks/bench_kernels.py \
        --parent <commit>

The ``spr_scoring`` section (:func:`spr_rows`, DESIGN 7.7) times
``LikelihoodEngine.score_insertions`` on a pruned tree whose side CLVs
are cached — the three-stage stacked scoring of K = 1 / 4 / 16 regraft
targets at 207 and 732 patterns, in as many calls as the candidate
stacks take — and records microseconds per scored candidate.  Recording
only; ``--spr`` records that section alone, leaving the others as they
are:

    PYTHONPATH=src python benchmarks/bench_kernels.py --spr

Its ``storage_us`` rows (:func:`storage_rows`, DESIGN 7.6) time the CLV
storage itself at the same three sizes: each kernel on the engine's
category-major ``(c, s, n)`` operands (``csn``) against a bench-local
copy of the form it replaced on a pattern-major ``(s, c, n)`` copy of
the same operands (``scn``).  A plain run records both columns.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.phylo import CatRates, GammaRates, default_gtr
from repro.phylo import kernels
from repro.phylo.dna import TIP_PARTIAL_ROWS
from repro.phylo.models import PMatrixCache

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

N_PATTERNS = 240
N_CATS = 4


@pytest.fixture(scope="module")
def working_set():
    rng = np.random.default_rng(0)
    model = default_gtr()
    rates = GammaRates(0.8, N_CATS).rates
    p = PMatrixCache(model, rates).matrices(0.1)  # as the engine gets it
    left = rng.random((N_CATS, N_PATTERNS, 4)) + 1e-3
    right = rng.random((N_CATS, N_PATTERNS, 4)) + 1e-3
    masks = rng.choice([1, 2, 4, 8], size=N_PATTERNS).astype(np.uint8)
    weights = rng.integers(1, 6, size=N_PATTERNS).astype(float)
    scale = np.zeros(N_PATTERNS, dtype=np.int64)
    return model, rates, p, left, right, masks, weights, scale


def test_newview_inner_inner(benchmark, working_set):
    _, _, p, left, right, _, _, _ = working_set

    def newview():
        terms = kernels.newview_combine(
            kernels.inner_terms(p, left), kernels.inner_terms(p, right)
        )
        counts = np.zeros(N_PATTERNS, dtype=np.int64)
        kernels.scale_clv(terms, counts)
        return terms

    result = benchmark(newview)
    assert result.shape == (N_CATS, N_PATTERNS, 4)


def test_newview_tip_tip(benchmark, working_set):
    """The specialized both-children-tips case (cheapest path)."""
    _, _, p, _, _, masks, _, _ = working_set

    def newview():
        return kernels.newview_combine(
            kernels.tip_terms(p, masks), kernels.tip_terms(p, masks)
        )

    result = benchmark(newview)
    assert result.shape == (N_CATS, N_PATTERNS, 4)


@pytest.mark.parametrize("case", ["tip_tip", "tip_inner", "inner_inner"])
def test_newview_fused(benchmark, working_set, case):
    """The whole ``newview()`` as the engine calls it: one fused kernel
    on resolved operands, into a preallocated slot, rescale included —
    against the per-kernel rows above (``test_newview_fused[tip_tip]``
    vs ``test_newview_tip_tip``, ``[inner_inner]`` vs
    ``test_newview_inner_inner``)."""
    _, _, p, left, right, masks, _, scale = working_set
    sides = {"tip": masks, "inner": (left, scale)}
    first, second = (sides[kind] for kind in case.split("_"))
    out_clv, work = np.empty_like(left), np.empty_like(left)
    out_scale = np.empty(N_PATTERNS, dtype=np.int64)

    scaled = benchmark(
        kernels.newview, first, p, second, p, out_clv, out_scale, None,
        False, work,
    )
    assert scaled == 0 and np.isfinite(out_clv).all()


def test_transition_matrices_small_loop(benchmark, working_set):
    """The 4-25 iteration 'small loop' building P(t) per category."""
    model, rates, _, _, _, _, _, _ = working_set
    p = benchmark(model.transition_matrices, 0.123, rates)
    assert p.shape == (N_CATS, 4, 4)


def test_evaluate(benchmark, working_set):
    model, _, p, left, right, _, weights, scale = working_set
    cat_w = np.full(N_CATS, 1.0 / N_CATS)

    def evaluate():
        return kernels.evaluate_loglik(
            model.pi, cat_w, weights, left,
            kernels.inner_terms(p, right), scale,
        )

    value = benchmark(evaluate)
    assert np.isfinite(value)


def test_newview_protein_20_states(benchmark):
    """The 20-state amino-acid kernel at the same pattern count.

    The AA inner loop is (20/4)^2 = 25x the arithmetic of the DNA loop
    per pattern-category — the reason AA analyses dominate HPC
    phylogenetics budgets.
    """
    from repro.phylo import GammaRates, PoissonAA

    rng = np.random.default_rng(1)
    model = PoissonAA()
    rates = GammaRates(0.8, N_CATS).rates
    p = model.transition_matrices(0.1, rates)
    left = rng.random((N_CATS, N_PATTERNS, 20)) + 1e-3
    right = rng.random((N_CATS, N_PATTERNS, 20)) + 1e-3

    def newview():
        terms = kernels.newview_combine(
            kernels.inner_terms(p, left), kernels.inner_terms(p, right)
        )
        counts = np.zeros(N_PATTERNS, dtype=np.int64)
        kernels.scale_clv(terms, counts)
        return terms

    result = benchmark(newview)
    assert result.shape == (N_CATS, N_PATTERNS, 20)


def test_makenewz_sumtable_build(benchmark, working_set):
    """Once per ``makenewz``: both sides into the eigenbasis."""
    model, _, _, left, right, _, _, _ = working_set
    out, work = np.empty_like(left), np.empty_like(left)

    table = benchmark(
        kernels.branch_sumtable, model._right, model._left, model.pi,
        N_CATS, left, right, None, out, work,
    )
    assert table.shape == (N_CATS * 4, N_PATTERNS)


def test_makenewz_sumtable_iteration(benchmark, working_set):
    """One derivative evaluation on the sumtable: the prepared probe on
    a one-row stack, as ``makenewz`` pays it."""
    model, rates, _, left, right, _, weights, _ = working_set
    cat_w = np.full(N_CATS, 1.0 / N_CATS)
    table = kernels.branch_sumtable(
        model._right, model._left, model.pi, N_CATS, left, right)
    probe = kernels.SumtableProbe(model._eigenvalues, rates, weights, cat_w)

    (lnl, d1, d2), = benchmark(probe.stacked, table[None], [0.2], [0.0],
                               probe.stack_work(1))
    assert np.isfinite(lnl) and np.isfinite(d1) and np.isfinite(d2)


def test_makenewz_newton_iteration(benchmark, working_set):
    """The explicit ``(P, dP, d2P)`` iteration the sumtable replaced
    (still the ``branch_derivatives()`` probe and the oracle's path)."""
    model, rates, _, left, right, _, weights, scale = working_set
    cat_w = np.full(N_CATS, 1.0 / N_CATS)

    def iteration():
        terms = model.transition_derivatives(0.2, rates)
        return kernels.branch_derivatives(
            terms, model.pi, cat_w, weights, left, right, scale
        )

    lnl, d1, d2 = benchmark(iteration)
    assert np.isfinite(lnl) and np.isfinite(d1) and np.isfinite(d2)


# -- the prepared makenewz probe ----------------------------------------------


def _probe_on_random_table(n_patterns, cat):
    """``(full, lnl_only)`` at ``t = 0.2``: a prepared probe on a random
    ``n_patterns``-row sumtable, as a one-row stack."""
    rng = np.random.default_rng(n_patterns)
    model = default_gtr()
    weights = rng.integers(1, 6, size=n_patterns).astype(float)
    if cat:
        # A CAT engine's layout: four category blocks of ceil(s / 4)
        # patterns, the short ones padded with weight-0 copies.
        rates = CatRates(rng.uniform(0.25, 4.0, n_patterns), 4).rates
        cat_w = np.ones(1)
        padded = len(rates) * -(-n_patterns // len(rates))
        weights = np.concatenate([weights, np.zeros(padded - n_patterns)])
        n_patterns = padded
    else:
        rates, cat_w = GammaRates(0.8, N_CATS).rates, \
            np.full(N_CATS, 1.0 / N_CATS)
    shape = (len(cat_w), n_patterns, 4)
    table = kernels.branch_sumtable(
        model._right, model._left, model.pi, len(cat_w),
        rng.random(shape) + 1e-3, rng.random(shape) + 1e-3)
    probe = kernels.SumtableProbe(model._eigenvalues, rates, weights, cat_w)
    args = (table[None], [0.2], [0.0], probe.stack_work(1))
    return (lambda: probe.stacked(*args)), (lambda: probe.stacked_lnl(*args))


def _newton_solve():
    """A whole ``makenewz`` Newton solve (tree untouched) on the
    ``search_sc`` alignment: 207 patterns, Gamma-4, the longest branch
    from 1.5x its optimum (six iterations, then the lnL-only re-score)."""
    from repro.phylo import LikelihoodEngine, Tree, synthetic_dataset
    from repro.phylo.engine.core import masked_newton

    patterns = synthetic_dataset(n_taxa=12, n_sites=3000, seed=42).compress()
    tree = Tree.from_tip_names(patterns.taxa, np.random.default_rng(0))
    engine = LikelihoodEngine(patterns, default_gtr(), GammaRates(1.0, 4),
                              tree)
    engine.optimize_all_branches(passes=2)
    branch = max(tree.branches, key=lambda b: b.length)
    probe, start = engine._newton_probe(branch), [1.5 * branch.length]
    return lambda: masked_newton(*probe, start)


PROBE_SHAPES = {"207_gamma4": (207, False), "600_gamma4": (600, False),
                "207_cat": (207, True)}
PROBE_ROW_NAMES = [f"{kind}[{label}]" for label in PROBE_SHAPES
                   for kind in ("probe_full", "probe_lnl_only")] \
    + ["newton_solve[207_gamma4]"]


def probe_rows():
    """Row name -> zero-argument callable, one per recorded row."""
    rows = {}
    for label, (n_patterns, cat) in PROBE_SHAPES.items():
        rows[f"probe_full[{label}]"], rows[f"probe_lnl_only[{label}]"] = \
            _probe_on_random_table(n_patterns, cat)
    rows["newton_solve[207_gamma4]"] = _newton_solve()
    return rows


@pytest.fixture(scope="module")
def rows():
    return probe_rows()


@pytest.mark.parametrize("row", PROBE_ROW_NAMES)
def test_makenewz_probe(benchmark, rows, row):
    assert np.isfinite(benchmark(rows[row])).all()


# -- operand layout: the engine's own operands, three alignment sizes ----------

#: pattern count -> ``synthetic_dataset`` recipe: ``search_sc``'s
#: alignment, ``engine_smooth``'s, and the 42-taxon one the end-to-end
#: per-backend sweep uses (the paper's 42_SC has 1,277 patterns too).
_DIVERGENT = dict(n_sites=2400, seed=42, mean_branch_length=0.15,
                  invariant_fraction=0.05)
LAYOUT_SIZES = {
    207: dict(n_taxa=12, n_sites=3000, seed=42),
    732: dict(n_taxa=12, **_DIVERGENT),
    1277: dict(n_taxa=42, **_DIVERGENT),
}
LAYOUT_KINDS = ("inner_terms", "newview[inner_inner]", "newview[tip_inner]",
                "newview[tip_tip]", "branch_sumtable[inner_inner]",
                "branch_sumtable[tip_inner]", "probe_full", "probe_lnl_only",
                "makenewz")
LAYOUT_ROW_NAMES = [f"{kind}@{n}" for n in LAYOUT_SIZES
                    for kind in LAYOUT_KINDS]


def _layout_rows_at(n_patterns, recipe):
    from repro.phylo import LikelihoodEngine, Tree, synthetic_dataset
    from repro.phylo.engine.core import masked_newton

    patterns = synthetic_dataset(**recipe).compress()
    assert patterns.n_patterns == n_patterns
    tree = Tree.from_tip_names(patterns.taxa, np.random.default_rng(7))
    model = default_gtr().with_frequencies(patterns.base_frequencies())
    engine = LikelihoodEngine(patterns, model, GammaRates(0.7, N_CATS), tree)
    engine.optimize_all_branches(passes=2)
    engine.evaluate()

    inner = max((b for b in tree.branches
                 if not (b.nodes[0].is_tip or b.nodes[1].is_tip)),
                key=lambda b: b.length)
    leaf = next(b for b in tree.branches
                if b.nodes[0].is_tip != b.nodes[1].is_tip)
    tips = [engine._tip_masks(node) for node in tree.tips[:2]]
    u, v = (engine._operand(node, inner) for node in inner.nodes)
    p = engine._pmat(inner)
    out_clv, work = np.empty_like(u[0]), np.empty_like(u[0])
    out_scale = np.empty(n_patterns, dtype=np.int64)
    engine._newton_probe(leaf)  # the CLVs facing both are cached now
    derivatives, lnl_at = engine._newton_probe(inner)

    def newview(left, right):
        return lambda: kernels.newview(left, p, right, p, out_clv,
                                       out_scale, None, False, work)

    start, probe_at = [1.5 * inner.length], [inner.length]

    def makenewz():
        return masked_newton(*engine._newton_probe(inner), start)

    return {
        "inner_terms": lambda: kernels.inner_terms(p, u[0], out=out_clv),
        "newview[inner_inner]": newview(u, v),
        "newview[tip_inner]": newview(tips[0], v),
        "newview[tip_tip]": newview(tips[0], tips[1]),
        "branch_sumtable[inner_inner]": lambda: engine._newton_probe(inner),
        "branch_sumtable[tip_inner]": lambda: engine._newton_probe(leaf),
        "probe_full": lambda: derivatives(probe_at, [0]),
        "probe_lnl_only": lambda: lnl_at(probe_at, [0]),
        "makenewz": makenewz,
    }


def layout_rows():
    """Row name -> zero-argument callable for the ``operand_layout``
    section.  ``branch_sumtable[...]`` is ``engine._newton_probe`` on
    cached CLVs (the table build plus the scale-count offset);
    ``makenewz`` is that plus the whole Newton solve from 1.5x the
    optimum, the tree untouched."""
    rows = {}
    for n_patterns, recipe in LAYOUT_SIZES.items():
        for kind, call in _layout_rows_at(n_patterns, recipe).items():
            rows[f"{kind}@{n_patterns}"] = call
    return rows


@pytest.fixture(scope="module")
def layout():
    return layout_rows()


def _repoint(calls, name) -> None:
    """An engine has one sumtable: before timing a ``probe_*@n`` row,
    build it for that engine's inner branch again."""
    kind, _, size = name.partition("@")
    if size and kind.startswith("probe"):
        calls[f"branch_sumtable[inner_inner]@{size}"]()


@pytest.mark.parametrize("row", LAYOUT_ROW_NAMES)
def test_operand_layout(benchmark, layout, row):
    _repoint(layout, row)
    benchmark(layout[row])


# -- CLV storage: pattern-major (s, c, n) forms against the category-major ---
#
# Bench-local copies of the kernels as they were on ``(s, c, n)`` CLVs:
# transposed views into every GEMM, a transposed ``out=``, and a
# category-major copy inside ``evaluate_loglik``.


def _scn_inner_terms(p, clv, out):
    np.matmul(clv.transpose(1, 0, 2), p.transpose(0, 2, 1),
              out=out.transpose(1, 0, 2))


def _scn_tip_terms(p, masks, out):
    per_code = TIP_PARTIAL_ROWS @ p.transpose(0, 2, 1)
    np.take(per_code.transpose(1, 0, 2), masks, axis=0, out=out, mode="clip")


def _scn_scale_clv(clv, scale_counts):
    if (clv.min(initial=np.inf) >= kernels.SCALE_THRESHOLD
            and clv.max(initial=0.0) < np.inf):
        return 0
    needs = np.max(clv, axis=(1, 2), initial=0.0) < kernels.SCALE_THRESHOLD
    clv[needs] *= kernels.SCALE_FACTOR
    scale_counts[needs] += 1
    return int(needs.sum())


def _scn_newview(left, p_left, right, p_right, out_clv, out_scale, work):
    scales = []
    for side, p, out in ((left, p_left, out_clv), (right, p_right, work)):
        if type(side) is tuple:
            _scn_inner_terms(p, side[0], out)
            scales.append(side[1])
        else:
            _scn_tip_terms(p, side, out)
            scales.append(None)
    np.multiply(out_clv, work, out=out_clv)
    kernels.add_scale_counts(*scales, out_scale)
    return _scn_scale_clv(out_clv, out_scale)


def _scn_sumtable(model, n_cats, u_side, v_side, out, work):
    shape = (n_cats, model.n_states, len(u_side))
    out, work = out.reshape(shape), work.reshape(shape)
    for side, basis_t, into in ((u_side, model._right.T * model.pi, out),
                                (v_side, model._left, work)):
        if side.ndim == 1:
            np.take(basis_t @ TIP_PARTIAL_ROWS.T, side, axis=1, out=into[0],
                    mode="clip")
            into[1:] = into[0]
        else:
            np.matmul(basis_t, side.transpose(1, 2, 0), out=into)
    np.multiply(out, work, out=out)
    return out.reshape(-1, shape[2])


def _scn_evaluate_loglik(pi, cat_weights, pattern_weights, u_term, v_term,
                         scale_counts):
    s, c, n = v_term.shape
    product = np.empty((c, s, n))
    np.multiply(u_term.transpose(1, 0, 2), v_term.transpose(1, 0, 2),
                out=product)
    per_cat = (product.reshape(c * s, n) @ pi).reshape(c, s).T
    logs = np.log(per_cat @ cat_weights) \
        - scale_counts * kernels.LOG_SCALE_FACTOR
    return float(pattern_weights @ logs)


STORAGE_KINDS = ("inner_terms", "newview[inner_inner]", "newview[tip_inner]",
                 "branch_sumtable[inner_inner]", "branch_sumtable[tip_inner]",
                 "evaluate_loglik")
STORAGE_ROW_NAMES = [f"{kind}@{n}" for n in LAYOUT_SIZES
                     for kind in STORAGE_KINDS]


def _storage_rows_at(n_patterns, recipe):
    """``{"csn": {kind: call}, "scn": {kind: call}}`` on one engine's
    operands.  ``evaluate_loglik`` includes the propagation into its
    scratch operand, as ``LikelihoodEngine.evaluate`` calls it: the
    kernel consumes that operand."""
    from repro.phylo import LikelihoodEngine, Tree, synthetic_dataset

    patterns = synthetic_dataset(**recipe).compress()
    tree = Tree.from_tip_names(patterns.taxa, np.random.default_rng(7))
    model = default_gtr().with_frequencies(patterns.base_frequencies())
    rate_model = GammaRates(0.7, N_CATS)
    engine = LikelihoodEngine(patterns, model, rate_model, tree)
    engine.optimize_all_branches(passes=2)
    inner = max((b for b in tree.branches
                 if not (b.nodes[0].is_tip or b.nodes[1].is_tip)),
                key=lambda b: b.length)
    u, v = (engine._operand(node, inner) for node in inner.nodes)
    tip = engine._tip_masks(tree.tips[0])
    p = engine._pmat(inner)
    pi, cat_w, weights = model.pi, rate_model.weights, patterns.weights
    scale = u[1] + v[1]

    def scn(clv):
        return np.ascontiguousarray(clv.transpose(1, 0, 2))

    su, sv = (scn(u[0]), u[1]), (scn(v[0]), v[1])
    out, work, term = (np.empty_like(u[0]) for _ in range(3))
    s_out, s_work, s_term = (np.empty_like(su[0]) for _ in range(3))
    out_scale = np.empty(n_patterns, dtype=np.int64)
    table, s_table = np.empty(u[0].size), np.empty(u[0].size)

    def evaluate():
        kernels.inner_terms(p, v[0], out=term)
        return kernels.evaluate_loglik(pi, cat_w, weights, u[0], term, scale)

    def scn_evaluate():
        _scn_inner_terms(p, sv[0], s_term)
        return _scn_evaluate_loglik(pi, cat_w, weights, su[0], s_term, scale)

    assert evaluate() == scn_evaluate()
    sumtable = (model._right, model._left, model.pi, N_CATS)
    return {
        "csn": {
            "inner_terms": lambda: kernels.inner_terms(p, u[0], out=out),
            "newview[inner_inner]": lambda: kernels.newview(
                u, p, v, p, out, out_scale, None, False, work),
            "newview[tip_inner]": lambda: kernels.newview(
                tip, p, v, p, out, out_scale, None, False, work),
            "branch_sumtable[inner_inner]": lambda: kernels.branch_sumtable(
                *sumtable, u[0], v[0], out=table, work=work),
            "branch_sumtable[tip_inner]": lambda: kernels.branch_sumtable(
                *sumtable, tip, v[0], out=table, work=work),
            "evaluate_loglik": evaluate,
        },
        "scn": {
            "inner_terms": lambda: _scn_inner_terms(p, su[0], s_out),
            "newview[inner_inner]": lambda: _scn_newview(
                su, p, sv, p, s_out, out_scale, s_work),
            "newview[tip_inner]": lambda: _scn_newview(
                tip, p, sv, p, s_out, out_scale, s_work),
            "branch_sumtable[inner_inner]": lambda: _scn_sumtable(
                model, N_CATS, su[0], sv[0], s_table, s_work),
            "branch_sumtable[tip_inner]": lambda: _scn_sumtable(
                model, N_CATS, tip, sv[0], s_table, s_work),
            "evaluate_loglik": scn_evaluate,
        },
    }


def storage_rows():
    """Row name -> zero-argument callable: ``scn/<kind>@<n>`` (the old
    form on an ``(s, c, n)`` copy) and ``csn/<kind>@<n>`` (today's)."""
    rows = {}
    for n_patterns, recipe in LAYOUT_SIZES.items():
        for storage, calls in _storage_rows_at(n_patterns, recipe).items():
            for kind, call in calls.items():
                rows[f"{storage}/{kind}@{n_patterns}"] = call
    return rows


@pytest.fixture(scope="module")
def storage():
    return storage_rows()


@pytest.mark.parametrize("layout", ["scn", "csn"])
@pytest.mark.parametrize("row", STORAGE_ROW_NAMES)
def test_clv_storage(benchmark, storage, row, layout):
    benchmark(storage[f"{layout}/{row}"])


# -- prune-once insertion scoring ----------------------------------------------

SPR_STACKS, SPR_SIZES = (1, 4, 16), (207, 732)


def _spr_row(k, n_patterns):
    return f"score_insertions[K={k}]@{n_patterns}"


SPR_ROW_NAMES = [_spr_row(k, n) for n in SPR_SIZES for k in SPR_STACKS]


def _spr_rows_at(n_patterns, recipe):
    from repro.phylo import LikelihoodEngine, SearchConfig, Tree, \
        synthetic_dataset
    from repro.phylo.search import spr_neighborhood

    patterns = synthetic_dataset(**recipe).compress()
    assert patterns.n_patterns == n_patterns
    tree = Tree.from_tip_names(patterns.taxa, np.random.default_rng(7))
    model = default_gtr().with_frequencies(patterns.base_frequencies())
    engine = LikelihoodEngine(patterns, model, GammaRates(0.7, N_CATS), tree)
    engine.optimize_all_branches(passes=2)
    # The widest neighbourhood of an inner subtree, pruned for good.
    prune, keep = max(
        ((b, keep) for b in tree.branches for keep in b.nodes
         if not keep.is_tip and not b.other(keep).is_tip),
        key=lambda pair: len(spr_neighborhood(tree, *pair, 99)))
    targets = spr_neighborhood(tree, prune, keep, 99)
    assert len(targets) >= max(SPR_STACKS)
    root = prune.other(keep)
    engine.clv(root, prune)
    _, connect = tree.prune_subtree(prune, keep)
    iterations = SearchConfig().local_branch_iterations

    def score(k):
        # One call scores as many targets as the stacks hold.
        scores = []
        while len(scores) < k:
            scores += engine.score_insertions(
                root, targets[len(scores):k], connect,
                max_iterations=iterations)
        return scores

    score(len(targets))  # every side cached
    return {k: (lambda k=k: score(k)) for k in SPR_STACKS}


def spr_rows():
    """Row name -> zero-argument callable for the ``spr_scoring``
    section: one ``score_insertions`` call on K targets."""
    rows = {}
    for n_patterns in SPR_SIZES:
        for k, call in _spr_rows_at(n_patterns,
                                    LAYOUT_SIZES[n_patterns]).items():
            rows[_spr_row(k, n_patterns)] = call
    return rows


@pytest.fixture(scope="module")
def spr():
    return spr_rows()


@pytest.mark.parametrize("row", SPR_ROW_NAMES)
def test_spr_scoring(benchmark, spr, row):
    benchmark(spr[row])


def _record(calls) -> dict:
    """Median of 15 batch means, microseconds per call, row by row.
    The batches are taken round-robin — one batch of every row, fifteen
    times over — so a noisy neighbour costs each row a few batches, not
    one row all of its batches."""
    def batch(name):
        _repoint(calls, name)
        call = calls[name]
        call()  # warm
        inner = 50 if any(word in name for word in
                          ("solve", "makenewz", "score_insertions")) else 200
        started = time.perf_counter()
        for _ in range(inner):
            call()
        return (time.perf_counter() - started) / inner

    samples = {name: [] for name in calls}
    for _ in range(15):
        for name in calls:
            samples[name].append(batch(name))
    rows = {name: round(statistics.median(values) * 1e6, 2)
            for name, values in samples.items()}
    for name, value in rows.items():
        print(f"  {name:48s} {value:8.2f} us")
    return rows


def _record_spr(statistic: str) -> None:
    from repro.harness.report import merge_bench_section

    per_call = _record(spr_rows())
    merge_bench_section(RESULT_PATH, "spr_scoring", {
        "statistic": statistic.replace("per call", "per scored candidate"),
        "candidate_us": {
            f"K={k}@{n}": round(per_call[_spr_row(k, n)] / k, 2)
            for n in SPR_SIZES for k in SPR_STACKS},
    })


def main(argv=None) -> int:
    from repro.harness.report import merge_bench_section

    argv = sys.argv[1:] if argv is None else argv
    statistic = ("median of 15 batch means taken round-robin over the "
                 "rows, microseconds per call")
    if argv[:1] == ["--spr"]:
        _record_spr(statistic)
        print(f"bench_kernels: wrote spr_scoring to {RESULT_PATH.name}")
        return 0
    committed = json.loads(RESULT_PATH.read_text()) \
        if RESULT_PATH.is_file() else {}
    section = dict(committed.get("operand_layout", {}), statistic=statistic)
    section.pop("host", None)
    if argv[:1] == ["--parent"]:  # run from a clone of the parent commit
        section["parent_commit"] = argv[1]
        section["parent_rows_us"] = _record(layout_rows())
    else:
        calls = probe_rows()
        parent = committed.get("makenewz_probe", {})
        merge_bench_section(RESULT_PATH, "makenewz_probe", {
            "statistic": statistic,
            **{key: parent[key] for key in ("parent_commit",
                                            "parent_rows_us")
               if key in parent},
            "newton_solve_iterations":
                calls["newton_solve[207_gamma4]"]()[2][0],
            "rows_us": _record(calls),
        })
        section["rows_us"] = _record(layout_rows())
        _record_spr(statistic)
        timed = _record(storage_rows())
        section["storage_us"] = {
            row: {layout: timed[f"{layout}/{row}"]
                  for layout in ("scn", "csn")}
            for row in STORAGE_ROW_NAMES}
    merge_bench_section(RESULT_PATH, "operand_layout", section)
    print(f"bench_kernels: wrote {RESULT_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
