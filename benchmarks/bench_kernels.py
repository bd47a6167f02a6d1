"""Numpy likelihood-kernel throughput at the paper's working size.

These benchmark the *real* compute kernels on a 42_SC-shaped working
set (~240 patterns x 4 Gamma categories), i.e. the loops that the
paper's SPE port vectorizes: ``newview`` (large + small loop, kernel
by kernel and as the one fused call the engine makes), ``evaluate`` and
``makenewz`` (the once-per-branch sumtable, one Newton
iteration on it, and — for comparison — the explicit ``(P, dP, d2P)``
iteration it replaced).  The reported per-call times are this machine's
equivalents of the paper's 71 us average ``newview()`` invocation.

The ``makenewz`` probe rows (:func:`probe_rows`: the prepared probe,
full and lnL-only, at ``search_sc``'s 207 patterns and at 600, Gamma-4
and CAT, beside the one-shot ``sumtable_derivatives`` and a whole
Newton solve) are also recorded, with the host's ``cpu_count``, into
the ``makenewz_probe`` section of ``BENCH_engine.json``.  Recording
only — no speed-up bar::

    PYTHONPATH=src python benchmarks/bench_kernels.py

The ``operand_layout`` section (:func:`layout_rows`, DESIGN 7.5) times
what the engine itself hands its kernels — a P stack off the P-matrix
cache, CLVs out of the arena, the engine's own sumtable and prepared
probe — at 207 / 732 / 1,277 patterns: one inner propagation, the three
``newview`` cases, the sumtable build (inner/inner, tip/inner), one
probe evaluation (full, lnL-only) and a whole ``makenewz``.  Its rows
go only through calls that exist unchanged on the parent commit, so the
same file records the parent's column from a clone of it (kept beside
``rows_us`` as ``parent_rows_us``; a plain run carries it forward)::

    PYTHONPATH=<parent clone>/src python benchmarks/bench_kernels.py \
        --parent <commit>
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
    left = rng.random((N_PATTERNS, N_CATS, 4)) + 1e-3
    right = rng.random((N_PATTERNS, N_CATS, 4)) + 1e-3
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
    assert result.shape == (N_PATTERNS, N_CATS, 4)


def test_newview_tip_tip(benchmark, working_set):
    """The specialized both-children-tips case (cheapest path)."""
    _, _, p, _, _, masks, _, _ = working_set

    def newview():
        return kernels.newview_combine(
            kernels.tip_terms(p, masks), kernels.tip_terms(p, masks)
        )

    result = benchmark(newview)
    assert result.shape == (N_PATTERNS, N_CATS, 4)


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
    left = rng.random((N_PATTERNS, N_CATS, 20)) + 1e-3
    right = rng.random((N_PATTERNS, N_CATS, 20)) + 1e-3

    def newview():
        terms = kernels.newview_combine(
            kernels.inner_terms(p, left), kernels.inner_terms(p, right)
        )
        counts = np.zeros(N_PATTERNS, dtype=np.int64)
        kernels.scale_clv(terms, counts)
        return terms

    result = benchmark(newview)
    assert result.shape == (N_PATTERNS, N_CATS, 20)


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
    """One derivative evaluation on the sumtable, one-shot (a probe
    built and used once; ``makenewz`` pays ``probe_full`` below)."""
    model, rates, _, left, right, _, weights, _ = working_set
    cat_w = np.full(N_CATS, 1.0 / N_CATS)
    table = kernels.branch_sumtable(
        model._right, model._left, model.pi, N_CATS, left, right)

    lnl, d1, d2 = benchmark(
        kernels.sumtable_derivatives, table, model._eigenvalues, rates,
        0.2, weights, cat_w,
    )
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
    """A loaded probe on a random ``n_patterns``-row sumtable, plus the
    arguments of the equivalent one-shot ``sumtable_derivatives``."""
    rng = np.random.default_rng(n_patterns)
    model = default_gtr()
    weights = rng.integers(1, 6, size=n_patterns).astype(float)
    if cat:
        rate_model = CatRates(rng.uniform(0.25, 4.0, n_patterns), 4)
        rates = rate_model.rates[rate_model.site_categories]
        cat_w = np.ones(1)
    else:
        rates, cat_w = GammaRates(0.8, N_CATS).rates, \
            np.full(N_CATS, 1.0 / N_CATS)
    shape = (n_patterns, len(cat_w), 4)
    table = kernels.branch_sumtable(
        model._right, model._left, model.pi, len(cat_w),
        rng.random(shape) + 1e-3, rng.random(shape) + 1e-3)
    probe = kernels.SumtableProbe(model._eigenvalues, rates, weights, cat_w,
                                  cat)
    return probe.load(table), (table, model._eigenvalues, rates, 0.2,
                               weights, cat_w, 0.0, cat)


def _newton_solve():
    """A whole ``makenewz`` Newton solve (tree untouched) on the
    ``search_sc`` alignment: 207 patterns, Gamma-4, the longest branch
    from 1.5x its optimum (six iterations, then the lnL-only re-score)."""
    from repro.phylo import LikelihoodEngine, Tree, synthetic_dataset
    from repro.phylo.engine.core import newton_branch_length

    patterns = synthetic_dataset(n_taxa=12, n_sites=3000, seed=42).compress()
    tree = Tree.from_tip_names(patterns.taxa, np.random.default_rng(0))
    engine = LikelihoodEngine(patterns, default_gtr(), GammaRates(1.0, 4),
                              tree)
    engine.optimize_all_branches(passes=2)
    branch = max(tree.branches, key=lambda b: b.length)
    probe, start = engine._newton_probe(branch), 1.5 * branch.length
    return lambda: newton_branch_length(probe, start, lnl_at=probe.lnl)


PROBE_SHAPES = {"207_gamma4": (207, False), "600_gamma4": (600, False),
                "207_cat": (207, True)}
PROBE_ROW_NAMES = [f"{kind}[{label}]" for label in PROBE_SHAPES
                   for kind in ("probe_full", "probe_lnl_only",
                                "sumtable_derivatives_one_shot")] \
    + ["newton_solve[207_gamma4]"]


def probe_rows():
    """Row name -> zero-argument callable, one per recorded row."""
    rows = {}
    for label, (n_patterns, cat) in PROBE_SHAPES.items():
        probe, one_shot = _probe_on_random_table(n_patterns, cat)
        rows[f"probe_full[{label}]"] = lambda probe=probe: probe(0.2)
        rows[f"probe_lnl_only[{label}]"] = \
            lambda probe=probe: probe.lnl(0.2)
        rows[f"sumtable_derivatives_one_shot[{label}]"] = \
            lambda args=one_shot: kernels.sumtable_derivatives(*args)
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
    from repro.phylo.engine.core import newton_branch_length

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
    for branch in (inner, leaf):  # the CLVs facing both are cached now
        engine._newton_probe(branch)

    def newview(left, right):
        return lambda: kernels.newview(left, p, right, p, out_clv,
                                       out_scale, None, False, work)

    def makenewz(start=1.5 * inner.length):
        probe = engine._newton_probe(inner)
        return newton_branch_length(probe, start, lnl_at=probe.lnl)

    probe_at = inner.length
    return {
        "inner_terms": lambda: kernels.inner_terms(p, u[0], out=out_clv),
        "newview[inner_inner]": newview(u, v),
        "newview[tip_inner]": newview(tips[0], v),
        "newview[tip_tip]": newview(tips[0], tips[1]),
        "branch_sumtable[inner_inner]": lambda: engine._newton_probe(inner),
        "branch_sumtable[tip_inner]": lambda: engine._newton_probe(leaf),
        "probe_full": lambda: engine._probe(probe_at),
        "probe_lnl_only": lambda: engine._probe.lnl(probe_at),
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
    """An engine has one probe: before timing a ``probe_*@n`` row, load
    it with that engine's inner branch again."""
    kind, _, size = name.partition("@")
    if size and kind.startswith("probe"):
        calls[f"branch_sumtable[inner_inner]@{size}"]()


@pytest.mark.parametrize("row", LAYOUT_ROW_NAMES)
def test_operand_layout(benchmark, layout, row):
    _repoint(layout, row)
    benchmark(layout[row])


def _record(calls) -> dict:
    """Median of 15 batch means, microseconds per call, row by row.
    The batches are taken round-robin — one batch of every row, fifteen
    times over — so a noisy neighbour costs each row a few batches, not
    one row all of its batches."""
    def batch(name):
        _repoint(calls, name)
        call = calls[name]
        call()  # warm
        inner = 50 if ("solve" in name or "makenewz" in name) else 200
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


def main(argv=None) -> int:
    from repro.harness.report import merge_bench_section

    argv = sys.argv[1:] if argv is None else argv
    statistic = ("median of 15 batch means taken round-robin over the "
                 "rows, microseconds per call")
    committed = json.loads(RESULT_PATH.read_text()) \
        if RESULT_PATH.is_file() else {}
    section = dict(committed.get("operand_layout", {}), statistic=statistic)
    section.pop("host", None)
    if argv[:1] == ["--parent"]:  # run from a clone of the parent commit
        section["parent_commit"] = argv[1]
        section["parent_rows_us"] = _record(layout_rows())
    else:
        calls = probe_rows()
        merge_bench_section(RESULT_PATH, "makenewz_probe", {
            "statistic": statistic,
            "newton_solve_iterations":
                calls["newton_solve[207_gamma4]"]()[2],
            "rows_us": _record(calls),
        })
        section["rows_us"] = _record(layout_rows())
    merge_bench_section(RESULT_PATH, "operand_layout", section)
    print(f"bench_kernels: wrote {RESULT_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
