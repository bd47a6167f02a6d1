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
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.phylo import CatRates, GammaRates, default_gtr
from repro.phylo import kernels

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

N_PATTERNS = 240
N_CATS = 4


@pytest.fixture(scope="module")
def working_set():
    rng = np.random.default_rng(0)
    model = default_gtr()
    rates = GammaRates(0.8, N_CATS).rates
    p = model.transition_matrices(0.1, rates)
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
    cat_w = np.full(N_CATS, 1.0 / N_CATS)
    out, work = np.empty_like(left), np.empty_like(left)

    table = benchmark(
        kernels.branch_sumtable, model._right, model._left, model.pi,
        cat_w, left, right, None, out, work,
    )
    assert table.shape == (N_PATTERNS, N_CATS, 4)


def test_makenewz_sumtable_iteration(benchmark, working_set):
    """One derivative evaluation on the sumtable, one-shot (a probe
    built and used once; ``makenewz`` pays ``probe_full`` below)."""
    model, rates, _, left, right, _, weights, _ = working_set
    cat_w = np.full(N_CATS, 1.0 / N_CATS)
    table = kernels.branch_sumtable(
        model._right, model._left, model.pi, cat_w, left, right)

    lnl, d1, d2 = benchmark(
        kernels.sumtable_derivatives, table, model._eigenvalues, rates,
        0.2, weights,
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
        model._right, model._left, model.pi, cat_w,
        rng.random(shape) + 1e-3, rng.random(shape) + 1e-3)
    probe = kernels.SumtableProbe(model._eigenvalues, rates, weights, cat)
    return probe.load(table), (table, model._eigenvalues, rates, 0.2,
                               weights, 0.0, cat)


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


def main() -> int:
    from repro.harness.report import merge_bench_section

    calls, rows = probe_rows(), {}
    for name, call in calls.items():
        call()  # warm
        inner = 200 if "solve" not in name else 50
        samples = []
        for _ in range(15):
            started = time.perf_counter()
            for _ in range(inner):
                call()
            samples.append((time.perf_counter() - started) / inner)
        rows[name] = round(statistics.median(samples) * 1e6, 2)
        print(f"  {name:48s} {rows[name]:8.2f} us")
    iterations = calls["newton_solve[207_gamma4]"]()[2]
    merge_bench_section(RESULT_PATH, "makenewz_probe", {
        "statistic": "median of 15 batch means, microseconds per call",
        "newton_solve_iterations": iterations,
        "rows_us": rows,
    })
    print(f"bench_kernels: wrote 'makenewz_probe' section to "
          f"{RESULT_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
